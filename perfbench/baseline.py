"""Restate the ROADMAP baseline figures from the spans of traced runs.

    python3 perfbench/run.py --workload forecast_full --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload train_small --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload eval_grid --seed 1 --seconds 30 --trace 1
    python3 perfbench/baseline.py --seed 1

Everything printed comes from the spans the traced runs wrote to
.perfbench_run/spans/<workload>-seed<seed>.jsonl, over the traced
operations (op id >= 1).
"""

import argparse
import json
import os
import sys
from collections import defaultdict

import envstamp

FORWARD = ("model.encode", "model.tide_block", "model.decode",
           "losses.total_loss")


def load(workload: str, seed: int) -> list[dict]:
    path = os.path.join(envstamp.RUN_DIR, "spans",
                        f"{workload}-seed{seed}.jsonl")
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        return [dict(zip(header, json.loads(line))) for line in fh]


def ancestors(spans: list[dict], i: int):
    while i >= 0:
        yield spans[i]["name"]
        i = spans[i]["parent"]


def report(seed: int) -> None:
    fc = [s for s in load("forecast_full", seed) if s["op"] > 0]
    n_fc = len({s["op"] for s in fc})
    total = sum(s["end_s"] - s["start_s"] for s in fc if s["name"] == "op")
    fwd = defaultdict(lambda: [0.0, 0])
    for s in fc:
        if s["name"].startswith("ops."):
            fwd[s["name"][4:]][0] += s["self_s"]
            fwd[s["name"][4:]][1] += 1
    print(f"forecast_full: {total / n_fc * 1e3:.1f} ms per forecast "
          f"(traced), {n_fc} forecasts")
    for name, (sec, calls) in sorted(fwd.items(), key=lambda kv: -kv[1][0]):
        print(f"  {name:22s} {sec / n_fc * 1e3:8.2f} ms  "
              f"{calls / n_fc:5.1f} calls")

    tr = load("train_small", seed)
    steps = sum(1 for s in tr if s["op"] > 0
                and s["name"] == "training.adam_step")
    forward = backward = conv_bwd = validation = 0.0
    for s in tr:
        if s["op"] == 0:
            continue
        chain = list(ancestors(tr, s["parent"]))
        if s["name"] == "training.rollout_eval":
            validation += s["end_s"] - s["start_s"]
        elif "training.rollout_eval" in chain:
            continue
        elif s["name"] in FORWARD and not set(FORWARD) & set(chain):
            forward += s["end_s"] - s["start_s"]
        elif s["name"].startswith("ops.") and chain[:1] == ["op"]:
            forward += s["end_s"] - s["start_s"]  # e.g. pack_time's reshape
        elif s["name"] == "tape.backward":
            backward += s["end_s"] - s["start_s"]
        elif s["name"] == "bwd.conv2d":
            conv_bwd += s["self_s"]
    print(f"train_small, per train step over {steps} steps: forward+loss "
          f"{forward / steps * 1e3:.0f} ms, backward "
          f"{backward / steps * 1e3:.0f} ms, conv2d backward "
          f"{conv_bwd / steps * 1e3:.0f} ms "
          f"({100 * conv_bwd / backward:.0f}% of backward), validation "
          f"{validation / steps * 1e3:.0f} ms")

    ev = [s for s in load("eval_grid", seed) if s["op"] > 0]
    ops = len({s["op"] for s in ev})
    ssim = [s["end_s"] - s["start_s"] for s in ev
            if s["name"] == "metrics.ssim"]
    rollout = sum(s["end_s"] - s["start_s"] for s in ev
                  if s["name"] == "training.rollout_eval")
    command = sum(s["end_s"] - s["start_s"] for s in ev if s["name"] == "op")
    print(f"eval_grid: SSIM {sum(ssim) / len(ssim) * 1e3:.2f} ms per 128x128 "
          f"image over {len(ssim)} calls; {100 * sum(ssim) / rollout:.0f}% of "
          f"rollout_eval, {100 * sum(ssim) / command:.0f}% of the command; "
          f"{command / ops * 1e3:.0f} ms per command of "
          f"{ops} traced commands")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    report(p.parse_args(argv).seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
