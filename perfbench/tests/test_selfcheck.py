"""Self-checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They run perfbench/run.py as a user would, in a child process, with short
measuring times; all three workloads take about two minutes on 2 cores.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Counts that must not depend on the seed, the run length or timing.
COUNT_KEYS = sorted(m["name"] for m in SPEC["per_layer"]
                    if m["name"].endswith(".calls")
                    or m["name"] == "tape.nodes")


def run_bench(workload, seed, seconds, trace, script=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, script or os.path.join(BENCH, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    """Two traced runs of one workload at different seeds."""
    return request.param, [last_json(run_bench(request.param, seed, 1, 1))
                           for seed in (1, 2)]


def test_traced_runs_are_correct(traced_pair):
    _, runs = traced_pair
    for res in runs:
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2


def test_traced_run_reports_every_per_layer_metric(traced_pair):
    _, runs = traced_pair
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in runs:
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_layer_self_times_sum_to_the_operation_time(traced_pair):
    # self time of every layer span covers at least 95% of each traced
    # operation; the rest is the operation's own unattributed time
    _, runs = traced_pair
    for res in runs:
        assert 0.0 <= res["metrics"]["trace.unattributed_frac"]["value"] <= 0.05


def test_counts_repeat_exactly(traced_pair):
    _, (a, b) = traced_pair
    for key in COUNT_KEYS:
        assert a["metrics"][key]["value"] == b["metrics"][key]["value"], key


def test_counts_match_the_workload(traced_pair):
    name, (res, _) = traced_pair
    m = {k: v["value"] for k, v in res["metrics"].items()}
    if name == "forecast_full":
        assert m["training.predict.calls"] == 1.0
        assert m["metrics.otsu.calls"] == 20.0  # 10 frames x 2 polarities
        assert m["tape.nodes"] == 0.0 and m["ops.conv2d.bwd_ms"] == 0.0
    elif name == "train_small":
        assert m["tape.nodes"] > 0 and m["ops.conv2d.bwd_ms"] > 0
        assert m["training.adam_step_ms"] > 0
    else:
        # rollout_eval and the threshold grid each predict every sequence
        assert m["training.predict.calls"] == 2.0
        assert m["metrics.ssim.calls"] == 40.0
        assert m["events.read_ocm_mb"] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    res = last_json(run_bench("forecast_full", 3, 1, 0))
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("forecast_full", 1, 1, 0,
                     script=str(tmp_path / "perfbench" / "run.py"),
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.operation(units=2.0):
        outer = tracer._enter("model.encode")
        inner = tracer._enter("ops.conv2d", "enc0")
        tracer._exit(inner)
        tracer._exit(outer)
    root, outer, inner = tracer.spans
    inner.start, inner.end = 1.0, 3.0
    outer.start, outer.end, outer.child = 0.5, 4.0, 2.0
    root.start, root.end, root.child = 0.0, 5.0, 3.5
    m = {k: v for k, (v, _) in tracing.per_layer_metrics(tracer).items()}
    assert m["ops.conv2d.fwd_ms"] == pytest.approx(2000.0 / 2)
    assert m["layer.enc0.fwd_ms"] == pytest.approx(2000.0 / 2)
    assert m["model.encode_ms"] == pytest.approx(3500.0 / 2)  # inclusive
    assert m["trace.unattributed_frac"] == pytest.approx(1.5 / 5.0)
