"""Record the reference summaries that run.py compares each operation with.

    python3 perfbench/record_refs.py --seeds 0-31 [--workload eval_grid]

For every workload and seed this runs each distinct operation once and
stores its summary (workloads.py, `summary`) in refs.json, keeping the
entries of other seeds. Record only from sources whose outputs are known
to be right: a later change is then checked against them.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import envstamp
from run import REFS, WORKLOAD_NAMES


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=parse_seeds, required=True,
                   help="N or FIRST-LAST")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = p.parse_args(argv)
    envstamp.prepare()
    import workloads

    try:
        with open(REFS, encoding="utf-8") as fh:
            refs = json.load(fh)
    except FileNotFoundError:
        refs = {}
    os.makedirs(envstamp.RUN_DIR, exist_ok=True)
    for name in args.workload or WORKLOAD_NAMES:
        for seed in args.seeds:
            wl = workloads.WORKLOADS[name]()
            workdir = tempfile.mkdtemp(prefix="refs-", dir=envstamp.RUN_DIR)
            try:
                wl.setup(seed, workdir)
                summaries = []
                for i in range(wl.period):
                    wl.prepare()
                    try:
                        result = wl.run(i)
                        problems = wl.check(result)
                        if problems:
                            raise RuntimeError(f"{name} seed {seed} "
                                               f"operation {i}: {problems}")
                        summaries.append(wl.summary(result))
                    finally:
                        wl.finish()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            refs.setdefault(name, {})[str(seed)] = summaries
            print(f"{name} seed {seed}: {len(summaries)} summaries",
                  flush=True)
    for name in refs:
        refs[name] = dict(sorted(refs[name].items(), key=lambda kv: int(kv[0])))
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
