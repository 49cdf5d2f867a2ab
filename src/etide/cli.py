"""Command-line operator surface.

Subcommands: synth, train, predict, eval, gradcheck, bench, inspect.
Exit codes: 0 success; 1 usage error (bad flags/arguments); 2 validation
failure (shape or config mismatches, failing gradient checks); 3 I/O error
(missing or unreadable files). Every output file is written atomically and
no command mutates its inputs; randomness flows from --seed (default 0)
or, for training, the seed field of the config file.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

import numpy as np

from .events import FileFormatError, OccurrenceTensor, read_ocm, write_ocm
from .metrics import binarize, format_record, format_table
from .model import (CheckpointError, ModelConfig, count_params, init_params,
                    load_checkpoint, save_checkpoint)
from .numerics import check_model_gradients, run_op_suite
from .training import (AdamState, TrainConfig, benchmark, load_dataset,
                       make_moving_bar_dataset, predict, rollout_eval,
                       save_dataset, train)
from .util import atomic_write_bytes, config_from_text

_GRID_TAUS = tuple(round(0.1 * i, 1) for i in range(1, 10))


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    validation failures, so usage problems exit 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        h, w = int(h), int(w)
    except ValueError:
        raise ValueError(f"--size expects HxW, got {text!r}") from None
    if h < 1 or w < 1:
        raise ValueError(f"--size must be positive, got {text!r}")
    return h, w


def _parse_objects(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    try:
        low = int(lo)
        high = int(hi) if hi else low
    except ValueError:
        raise ValueError(f"--objects expects N or MIN-MAX, got {text!r}") from None
    if low < 1 or high < low:
        raise ValueError(f"--objects range {text!r} is empty")
    return low, high


def _read_text(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    height, width = _parse_size(args.size)
    if args.sequences < 0:
        raise ValueError("--sequences must be >= 0")
    if args.frames < 1:
        raise ValueError("--frames must be >= 1")
    dataset = make_moving_bar_dataset(
        args.sequences, height=height, width=width, t_in=args.frames,
        t_out=args.frames, seed=args.seed,
        n_objects=_parse_objects(args.objects))
    save_dataset(dataset, args.out)
    print(f"sequences={len(dataset)} frames={args.frames} "
          f"size={height}x{width} out={args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = config_from_text(TrainConfig, _read_text(args.config))
    if not os.path.isdir(args.data):
        raise OSError(f"data directory not found: {args.data}")
    dataset = load_dataset(args.data)

    if args.resume:
        model = load_checkpoint(args.resume)
        if model.config != cfg.model:
            raise ValueError("checkpoint model config does not match the "
                             "training config")
        state = AdamState.load(args.resume + ".opt.npz", model)
    else:
        model = init_params(cfg.model, seed=cfg.seed)
        state = AdamState(model)

    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    model, _ = train(model, dataset, cfg, out_dir=out_dir, state=state,
                     log=print)
    save_checkpoint(args.out, model)
    state.save(args.out + ".opt.npz")
    print(f"checkpoint={args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_checkpoint(args.ckpt)
    occ = read_ocm(args.infile)
    cfg = model.config
    if occ.t != cfg.t_in or (occ.height, occ.width) != (cfg.height, cfg.width):
        raise ValueError(
            f"input is {occ.t}x2x{occ.height}x{occ.width}, model expects "
            f"{cfg.t_in}x2x{cfg.height}x{cfg.width}")
    probs = predict(model, occ.frames)[0]
    masks = binarize(probs)
    t0 = occ.t0 + cfg.t_in * occ.bin_duration
    write_ocm(args.out, OccurrenceTensor(masks, occ.bin_duration, t0))
    buf = io.BytesIO()
    np.save(buf, probs.astype(np.float32))
    atomic_write_bytes(args.out + ".probs.npy", buf.getvalue())
    print(f"out={args.out} frames={masks.shape[0]}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    if not os.path.isdir(args.data):
        raise OSError(f"data directory not found: {args.data}")
    dataset = load_dataset(args.data)
    taus = _GRID_TAUS if args.threshold_grid else ()
    report = rollout_eval(model, dataset, taus=taus)
    print("model " + format_record(report["model"]))
    print("persistence " + format_record(report["persistence"]))
    for tau, scores in report["grid"]:
        print(f"grid tau={tau:.1f} " + format_record(
            {k: scores[k] for k in ("iou_on", "iou_off", "miou", "aiou")}))
    print(format_table(report["model"]))
    return 0


def _cmd_gradcheck(args) -> int:
    ok = True
    for result in run_op_suite():
        status = "PASS" if result["passed"] else "FAIL"
        ok &= result["passed"]
        print(f"check={result['check']} "
              f"max_rel_err={result['max_rel_err']:.3e} status={status}")
    if args.full:
        err = check_model_gradients()
        passed = err < 1e-5
        ok &= passed
        print(f"check=model_composition max_rel_err={err:.3e} "
              f"status={'PASS' if passed else 'FAIL'}")
    return 0 if ok else 2


def _cmd_bench(args) -> int:
    cfg = (config_from_text(ModelConfig, _read_text(args.config))
           if args.config else ModelConfig())
    model = init_params(cfg, seed=args.seed)
    out = benchmark(model, iters=args.iters)
    print(f"median_ms={out['median_ms']:.3f} p95_ms={out['p95_ms']:.3f} "
          f"moving_bar_median_ms={out['moving_bar_median_ms']:.3f} "
          f"traced_peak_bytes={out['traced_peak_bytes']} "
          f"n_params={out['n_params']}")
    return 0


def _cmd_inspect(args) -> int:
    model = load_checkpoint(args.ckpt)
    for p in model.parameters():
        shape = "x".join(str(s) for s in p.shape) if p.shape else "scalar"
        print(f"{p.name} {shape}")
    print(f"n_params={count_params(model)}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="etide",
                     description="Event-tensor occurrence-map forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic moving-bar dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--sequences", type=int, required=True)
    p.add_argument("--frames", type=int, default=10,
                   help="frames per window (input and target)")
    p.add_argument("--size", default="128x128", help="HxW")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--objects", default="1-3", help="bar count or MIN-MAX")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train from a key=value config file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--config", required=True, help="train config file")
    p.add_argument("--out", required=True, help="final checkpoint path")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="forecast one input window")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True, help="input OCM1")
    p.add_argument("--out", required=True, help="output OCM1")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="metrics plus persistence baseline")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold-grid", action="store_true",
                   help="also report IoU at fixed thresholds 0.1..0.9")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--full", action="store_true",
                   help="also check the composed model")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("bench", help="forward-latency benchmark at batch 1")
    p.add_argument("--config", help="model config file (default: full-scale)")
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("inspect", help="list checkpoint parameters")
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
