"""etide benchmark: one workload per run, results as one JSON line.

    python3 perfbench/run.py --workload forecast_full --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads: forecast_full, train_small, eval_grid (see workloads.py), or
`all`, which runs the three one after another, each in its own process.

--trace 0 measures the end-to-end metrics with nothing patched:
  op_ms_p50    median wall time of one operation (ms)
  items_per_s  items one operation completes, per second of the median
               operation time (forecasts, training samples or evaluated
               sequences); the median keeps operations slowed by the
               machine from moving it
  peak_rss_mb  peak resident memory of this process (MB, 2^20 bytes)
  setup_s      script start to the first timed operation: imports, plus the
               median of three set-ups (synthesis, model init, files),
               plus one warm-up (a forward pass; for train_small also one
               training step)
--trace 1 runs untraced operations for half the time, then installs the
spans of tracing.py and tracemalloc for the other half, and reports the
per-layer metrics per unit of work (see README.md). Spans are written to
.perfbench_run/spans/ at the end.

Every operation is checked (shapes, finite values, probabilities in
[0, 1], binary masks, finite loss, exit code 0) and compared with the
first operation on the same input and, for the seeds in refs.json, with
values recorded from the sources this benchmark was written against. The
last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"""

import time

_START = time.perf_counter()  # taken before any import this script makes

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import envstamp  # noqa: E402

WORKLOAD_NAMES = ("forecast_full", "train_small", "eval_grid")
SETUP_REPEATS = 3
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
# Each workload's figure under the name its users know it by.
NAMED = {"forecast_full": (("forecast_ms_p50", "op_ms_p50"),),
         "train_small": (("train_samples_per_s", "items_per_s"),),
         "eval_grid": (("eval_seq_per_s", "items_per_s"),)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_refs(workload: str, seed: int):
    try:
        with open(REFS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


class Runner:
    """Runs operations of one workload and checks each result."""

    def __init__(self, wl, refs):
        self.wl = wl
        self.refs = refs
        self.first = {}  # i % period -> summary of the first such operation
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, operation=None) -> list:
        """Operations until `seconds` have passed (at least one), each inside
        `operation(units)` when given; returns the wall times, in seconds,
        of those that did not raise."""
        times = []
        start = self.attempted
        deadline = time.perf_counter() + seconds
        while self.attempted == start or time.perf_counter() < deadline:
            i = self.attempted
            self.attempted += 1
            self.wl.prepare()
            try:
                span = (operation(self.wl.units()) if operation
                        else contextlib.nullcontext())
                t0 = time.perf_counter()
                with span:
                    result = self.wl.run(i)
                times.append(time.perf_counter() - t0)
                problems = self.check(i, result)
            except Exception:  # an operation that raises counts as failed
                problems = [traceback.format_exc()]
            finally:
                self.wl.finish()
            if problems:
                self.failed += 1
                print(f"operation {i} failed:\n  " + "\n  ".join(problems),
                      file=sys.stderr)
        return times

    def check(self, i: int, result) -> list:
        problems = self.wl.check(result)
        if problems:
            return problems
        got = self.wl.summary(result)
        slot = i % self.wl.period
        first = self.first.setdefault(slot, got)
        problems = [f"differs from operation {slot} of this run: {p}"
                    for p in self.wl.compare(got, first)]
        if self.refs is not None:
            problems += [f"differs from refs.json: {p}"
                         for p in self.wl.compare(got, self.refs[slot])]
        return problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, workdir: str) -> dict:
    """One run; returns the result object."""
    import workloads
    import_s = time.perf_counter() - _START

    wl = workloads.WORKLOADS[args.workload]()
    runner = Runner(wl, load_refs(args.workload, args.seed))
    if args.trace:
        return traced(args, wl, runner, workdir)

    setups = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup(args.seed, tempfile.mkdtemp(prefix=f"setup{k}-",
                                             dir=workdir))
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl.warm_up()
    setup_s = import_s + statistics.median(setups) + \
        (time.perf_counter() - t0)

    times = runner.run(args.seconds)
    p50 = statistics.median(times)
    p90 = (statistics.quantiles(times, n=10)[-1] if len(times) >= 2
           else times[0])
    p90_name = "forecast_ms_p90" if args.workload == "forecast_full" \
        else "op_ms_p90"
    print(f"{args.workload}: {p90_name}={p90 * 1e3:.6g} ms over "
          f"{len(times)} operations (not gated)")
    metrics = {
        "op_ms_p50": (p50 * 1e3, "ms"),
        "items_per_s": (wl.items() / p50, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return result(runner, metrics)


def traced(args, wl, runner, workdir: str) -> dict:
    import tracemalloc

    import tracing
    from etide.training import estimate_activation_bytes

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup(args.seed, workdir)
    finally:
        tracer.uninstall()
    wl.warm_up()
    plain = runner.run(args.seconds / 2)

    tracer.install()
    tracemalloc.start()
    tracer.memory = True
    try:
        spanned = runner.run(args.seconds / 2, operation=tracer.operation)
    finally:
        tracemalloc.stop()
        tracer.uninstall()
    tracer.write_spans(os.path.join(
        envstamp.RUN_DIR, "spans", f"{args.workload}-seed{args.seed}.jsonl"))

    metrics = tracing.per_layer_metrics(tracer)
    metrics["mem.estimate_mb"] = (
        estimate_activation_bytes(wl.config, wl.batch) / tracing.MB, "MB")
    metrics["trace.overhead_frac"] = (
        statistics.median(spanned) / statistics.median(plain) - 1.0, "frac")
    return result(runner, metrics)


def result(runner: Runner, metrics: dict) -> dict:
    return {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def print_named(workload: str, res: dict) -> None:
    m = res["metrics"]
    lines = [f"{alias}={m[key]['value']:.6g} {m[key]['unit']}"
             for alias, key in NAMED[workload] if key in m]
    lines += [f"{key}={m[key]['value']:.6g} {m[key]['unit']}"
              for key in ("peak_rss_mb", "setup_s") if key in m]
    lines += [f"ops_attempted={res['attempted']} count",
              f"ops_failed={res['failed']} count"]
    print(f"{workload}: " + " ".join(lines))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
    for name, res in results.items():
        if not args.trace:
            print_named(name, res)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        envstamp.prepare()
    except envstamp.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    os.makedirs(envstamp.RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=envstamp.RUN_DIR)
    try:
        res = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": envstamp.stamp(args.seed)}))
    if not args.trace:
        print_named(args.workload, res)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
