"""Smoke test: the demos run to completion against the package in src/.

Each demo runs in its own interpreter with PYTHONPATH=src and must exit 0.
05_train_small.py is left out: it trains for about three minutes, and the
training path it exercises is covered by test_training.py and the
learning-check acceptance gate.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("01_event_binning.py", "02_forward_pass.py", "03_losses.py",
         "04_metrics.py", "06_benchmark.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
