"""Deterministic training and experiment harness.

Adam with bias correction, seeded shuffling and drop-path streams so a
(seed, config, data) triple fixes the whole trajectory bit-exactly,
checkpoint/resume through the weight format plus an optimizer sidecar,
single-pass evaluation with a persistence baseline (forecasts on this
thread, scoring on the forecast helper thread), and the synthetic
moving-bar task used for desk-scale learning checks.

predict() is the deployed forecast and runs on two cores
(numerics.parallel): half of each split point on one helper thread, with
the serial forward's bits. parallel's module docstring states when a
split point uses the helper and why the bits hold.
"""

from __future__ import annotations

import io
import math
import os
import time
import tracemalloc
import zipfile
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .events import (DEFAULT_BIN_US, FileFormatError, OccurrenceTensor,
                     bin_events, random_bar_scene, read_ocm, synth_scene,
                     write_ocm)
from .losses import LossConfig, total_loss
from .metrics import MetricAccumulator, format_record, score_sequence
from .model import (CheckpointError, ModelConfig, TideModel, count_params,
                    init_params, save_checkpoint)
from .numerics import Tape, Tensor, ops, parallel
from .util import atomic_write_bytes, is_binary

MANIFEST_NAME = "manifest.txt"

_SHUFFLE_TAG = 101
_DROPPATH_TAG = 202
_SCENE_TAG = 17


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 4
    batch_size: int = 4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    checkpoint_interval: int = 1
    val_split: float = 0.1
    # global-norm limit; 0 disables. At initialisation the norm can read
    # about 1e14 (train's docstring says why), and a limit clips that too.
    grad_clip: float = 0.0
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        # the range checks below let NaN through, and infinity through some
        for name in ("lr", "beta1", "beta2", "eps", "val_split", "grad_clip"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {b}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if not 0.0 <= self.val_split < 1.0:
            raise ValueError(f"val_split must lie in [0, 1), got {self.val_split}")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.grad_clip < 0:
            raise ValueError(f"grad_clip must be >= 0, got {self.grad_clip}")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class AdamState:
    """First/second moments per parameter plus the step counter."""

    def __init__(self, model: TideModel):
        self.m = {p.name: np.zeros_like(p.data) for p in model.parameters()}
        self.v = {p.name: np.zeros_like(p.data) for p in model.parameters()}
        self.step = 0
        self.epochs_done = 0

    def save(self, path) -> None:
        buf = io.BytesIO()
        arrays = {f"m:{k}": v for k, v in self.m.items()}
        arrays.update({f"v:{k}": v for k, v in self.v.items()})
        arrays["step"] = np.array(self.step, dtype=np.int64)
        arrays["epochs_done"] = np.array(self.epochs_done, dtype=np.int64)
        np.savez(buf, **arrays)
        atomic_write_bytes(path, buf.getvalue())

    @classmethod
    def load(cls, path, model: TideModel) -> "AdamState":
        """Read a state save() wrote. A file np.load cannot read, or a
        NaN or infinite moment, raises CheckpointError naming the path;
        entries that do not match the model's parameters raise
        ValueError."""
        try:
            with np.load(path) as npz:
                data = dict(npz)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"{path}: unreadable optimizer state ({exc})") from exc
        state = cls(model)
        counters = ("step", "epochs_done")
        expected = {f"{kind}:{n}" for kind in "mv" for n in state.m}
        for key, value in data.items():
            if key in counters:
                continue
            if key not in expected:
                raise ValueError(f"unexpected optimizer entry {key!r}")
            kind, _, name = key.partition(":")
            target = state.m if kind == "m" else state.v
            if value.shape != target[name].shape:
                raise ValueError(f"optimizer entry {key!r} has shape "
                                 f"{value.shape}, expected "
                                 f"{target[name].shape}")
            target[name] = value.astype(target[name].dtype)
            if not np.isfinite(target[name]).all():
                raise CheckpointError(f"{path}: optimizer entry {key!r} has "
                                      f"non-finite values")
        missing = (expected | set(counters)) - set(data)
        if missing:
            raise ValueError(f"optimizer state missing {sorted(missing)[0]!r}")
        state.step = int(data["step"])
        state.epochs_done = int(data["epochs_done"])
        return state


def grad_norm(params, grads) -> float:
    """Global L2 norm of the map `grads`, summed in `params` order;
    parameters without a gradient are skipped."""
    return sum(float((grads[p] ** 2).sum()) for p in params
               if p in grads) ** 0.5


def _check_finite(params, grads, epoch: int, step: int, **values) -> None:
    """Raise ValueError unless every named value is finite. The message
    names the bad values, the epoch and step (both counted from 1) and the
    first parameter whose value, or failing that gradient, is not finite."""
    bad = [name for name, v in values.items() if not np.isfinite(v).all()]
    if not bad:
        return
    culprit = next((p.name for p in params if not np.isfinite(p.data).all()),
                   None)
    if culprit is None:
        culprit = next((p.name for p in params if p in grads
                        and not np.isfinite(grads[p]).all()), "none")
    raise ValueError(
        f"non-finite {' and '.join(bad)} at epoch {epoch}, step {step}; "
        f"first bad parameter: {culprit}")


def adam_step(params, grads, state: AdamState, lr: float = 1e-3,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
              grad_clip: float = 0.0, norm: float | None = None) -> None:
    """One bias-corrected Adam update in place; missing grads count as zero.
    `norm` is grad_norm(params, grads) when the caller has it already."""
    params = list(params)
    scale = 1.0
    if grad_clip > 0.0:
        if norm is None:
            norm = grad_norm(params, grads)
        if norm > grad_clip:
            scale = grad_clip / norm

    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for p in params:
        g = grads[p] * scale if p in grads else np.zeros_like(p.data)
        m = state.m[p.name]
        v = state.v[p.name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

class SequenceDataset:
    """In-memory pairs of binary (input window, target window) tensors."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray,
                 bin_duration: int = DEFAULT_BIN_US):
        # checked as given: a cast to uint8 first would read 0.5 as 0
        inputs, targets = np.asarray(inputs), np.asarray(targets)
        for name, arr in (("inputs", inputs), ("targets", targets)):
            if arr.ndim != 5 or arr.shape[2] != 2:
                raise ValueError(f"{name} must be [N,T,2,H,W], got {arr.shape}")
            if not is_binary(arr):
                raise ValueError(f"{name} must be binary")
        inputs = np.ascontiguousarray(inputs, dtype=np.uint8)
        targets = np.ascontiguousarray(targets, dtype=np.uint8)
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError("inputs and targets disagree on sequence count")
        if inputs.shape[3:] != targets.shape[3:]:
            raise ValueError("inputs and targets disagree on spatial size")
        self.inputs = inputs
        self.targets = targets
        self.bin_duration = bin_duration

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def __getitem__(self, i: int):
        return self.inputs[i], self.targets[i]

    @property
    def t_in(self) -> int:
        return self.inputs.shape[1]

    @property
    def t_out(self) -> int:
        return self.targets.shape[1]

    @property
    def height(self) -> int:
        return self.inputs.shape[3]

    @property
    def width(self) -> int:
        return self.inputs.shape[4]


def make_moving_bar_dataset(n_sequences: int, *, height: int = 128,
                            width: int = 128, t_in: int = 10, t_out: int = 10,
                            seed: int = 0,
                            bin_duration: int = DEFAULT_BIN_US,
                            n_objects: tuple[int, int] = (1, 3)
                            ) -> SequenceDataset:
    """Bars crossing the frame at constant velocity; fully seed-determined."""
    if n_sequences < 0:
        raise ValueError(f"n_sequences must be >= 0, got {n_sequences}")
    n_bins = t_in + t_out
    xs = np.zeros((n_sequences, t_in, 2, height, width), dtype=np.uint8)
    ys = np.zeros((n_sequences, t_out, 2, height, width), dtype=np.uint8)
    for i in range(n_sequences):
        rng = np.random.default_rng([seed, _SCENE_TAG, i])
        scene = random_bar_scene(rng, width, height, n_bins,
                                 n_objects=n_objects,
                                 bin_duration=bin_duration)
        stream = synth_scene(scene, seed=int(rng.integers(0, 2 ** 31)))
        occ = bin_events(stream, 0, bin_duration, n_bins)
        xs[i] = occ.frames[:t_in]
        ys[i] = occ.frames[t_in:]
    return SequenceDataset(xs, ys, bin_duration)


def save_dataset(dataset: SequenceDataset, out_dir) -> None:
    """One OCM1 pair per sequence plus a two-column manifest."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i in range(len(dataset)):
        x, y = dataset[i]
        name_in = f"seq_{i:05d}_in.ocm1"
        name_tgt = f"seq_{i:05d}_tgt.ocm1"
        write_ocm(os.path.join(out_dir, name_in),
                  OccurrenceTensor(x, dataset.bin_duration, 0))
        write_ocm(os.path.join(out_dir, name_tgt),
                  OccurrenceTensor(y, dataset.bin_duration,
                                   dataset.t_in * dataset.bin_duration))
        rows.append(f"{name_in} {name_tgt}\n")
    atomic_write_bytes(os.path.join(out_dir, MANIFEST_NAME),
                       "".join(rows).encode())


def load_dataset(data_dir) -> SequenceDataset:
    manifest = os.path.join(data_dir, MANIFEST_NAME)
    try:
        with open(manifest, encoding="utf-8") as fh:
            rows = [(i, line.split()) for i, line in enumerate(fh, 1)
                    if line.strip()]
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{manifest}: not UTF-8 text ({exc})") from exc
    xs, ys = [], []
    bin_duration = DEFAULT_BIN_US
    for line, row in rows:
        if len(row) != 2:
            raise FileFormatError(f"{manifest}: line {line} must list two "
                                  f"files, got {row}")
        occ_in = read_ocm(os.path.join(data_dir, row[0]))
        occ_tgt = read_ocm(os.path.join(data_dir, row[1]))
        xs.append(occ_in.frames)
        ys.append(occ_tgt.frames)
        bin_duration = occ_in.bin_duration
    if not rows:
        return SequenceDataset(np.zeros((0, 1, 2, 1, 1), dtype=np.uint8),
                               np.zeros((0, 1, 2, 1, 1), dtype=np.uint8))
    return SequenceDataset(np.stack(xs), np.stack(ys), bin_duration)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def split_indices(n: int, val_split: float) -> tuple[list[int], list[int]]:
    """Deterministic tail split; at least one training sequence survives."""
    n_val = min(int(round(n * val_split)), max(n - 1, 0))
    return list(range(n - n_val)), list(range(n - n_val, n))


def _check_dataset(dataset: SequenceDataset, cfg: ModelConfig) -> None:
    """Raise ValueError if the dataset is empty, or if its windows or
    frames do not match the model's."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if (dataset.t_in, dataset.t_out) != (cfg.t_in, cfg.t_out):
        raise ValueError(
            f"dataset windows {dataset.t_in}->{dataset.t_out} do not match "
            f"model {cfg.t_in}->{cfg.t_out}")
    if (dataset.height, dataset.width) != (cfg.height, cfg.width):
        raise ValueError(
            f"dataset frames {dataset.height}x{dataset.width} do not match "
            f"model {cfg.height}x{cfg.width}")


def train(model: TideModel, dataset: SequenceDataset, cfg: TrainConfig,
          out_dir=None, state: AdamState | None = None, log=None
          ) -> tuple[TideModel, list[dict]]:
    """Run (or, with a loaded optimizer state, resume) the training loop.

    Epoch-derived random streams make a resumed run replay exactly what the
    unbroken run would have done from that epoch on. A step's gradients
    are its own tape's map, freed after Adam. Returns the model and
    one history record per completed epoch; its grad_norm is the mean over
    the epoch's steps of the global gradient norm before clipping.
    At initialisation that norm is huge. The conv biases start at zero, so
    at every event-free window a stage hands LayerNorm a constant channel
    vector, and LN's backward scales it by 1/sqrt(eps) = 1000 per stage.
    One batch-4 backward of the learning-check model (seed 0) on the first
    four 128^2 moving-bar sequences of seed 0 gives a norm of 2.3e14, with
    max |grad| 1.0e14 on enc0.conv.b. Epoch 1's grad_norm and any
    grad_clip see this; Adam normalises its step, so training proceeds.
    Non-finite logits, loss or global gradient norm raise ValueError,
    naming the epoch, the step and the first bad parameter, before the
    weights change; no checkpoint is written for that epoch.
    """
    _check_dataset(dataset, cfg.model)
    if state is None:
        state = AdamState(model)
    train_idx, val_idx = split_indices(len(dataset), cfg.val_split)
    history: list[dict] = []
    params = model.parameters()

    for epoch in range(state.epochs_done, cfg.epochs):
        order = np.random.default_rng(
            [cfg.seed, _SHUFFLE_TAG, epoch]).permutation(train_idx)
        loss_sum = norm_sum = 0.0
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[start:start + cfg.batch_size]
            x = dataset.inputs[batch].astype(np.float32)
            y = dataset.targets[batch]  # uint8: the loss casts it
            droppath_rng = np.random.default_rng(
                [cfg.seed, _DROPPATH_TAG, epoch, step])
            with Tape() as tape:
                logits = model.forward(Tensor(x), training=True,
                                       rng=droppath_rng)
                # before the loss: its KL term rejects non-finite rows itself
                _check_finite(params, {}, epoch + 1, step + 1,
                              logits=logits.data)
                loss = total_loss(logits, y, cfg.loss)
                grads = tape.backward(loss)
            norm = grad_norm(params, grads)
            _check_finite(params, grads, epoch + 1, step + 1, loss=loss.data,
                          gradient_norm=norm)
            adam_step(params, grads, state, lr=cfg.lr, beta1=cfg.beta1,
                      beta2=cfg.beta2, eps=cfg.eps, grad_clip=cfg.grad_clip,
                      norm=norm)
            del tape, grads  # so they do not live through the next forward
            loss_sum += loss.item() * len(batch)
            norm_sum += norm

        state.epochs_done = epoch + 1
        record = {"epoch": epoch + 1,
                  "train_loss": loss_sum / len(order),
                  "grad_norm": norm_sum / (step + 1)}
        if val_idx:
            report = rollout_eval(model, dataset, indices=val_idx)
            record.update({f"val_{k}": v for k, v in report["model"].items()})
            record.update(
                {f"baseline_{k}": v for k, v in report["persistence"].items()
                 if k in ("miou", "aiou")})
        history.append(record)
        if log is not None:
            log(format_record(record))
        if out_dir is not None and (epoch + 1) % cfg.checkpoint_interval == 0:
            ckpt = os.path.join(out_dir, f"ckpt_{epoch + 1:04d}.etw")
            save_checkpoint(ckpt, model)
            state.save(ckpt + ".opt.npz")
    return model, history


# ---------------------------------------------------------------------------
# inference and evaluation
# ---------------------------------------------------------------------------

def predict(model: TideModel, x: np.ndarray) -> np.ndarray:
    """Probabilities [B,T_out,2,H,W] from binary inputs, one forward pass.

    The forward runs inside parallel.two_cores(): BLAS at one thread, and
    one helper thread takes half of each split point (the encoder's
    frames, each block's tail, the decoder's parity rows and its bias ->
    LN -> GELU rows, the head and the sigmoid, by rows), under parallel's
    rule. The bits are those of the serial forward at the same batch.

    The last bits depend on the batch: ops.linear runs gemv on one row
    and gemm on several, so a window's forecast in a batch of two differs
    from its batch-1 forecast by up to 4.2e-7 (seed 3, moving bars).
    rollout_eval and `etide predict` forecast at batch 1.
    """
    x = np.asarray(x)
    if x.ndim == 4:
        x = x[None]
    with parallel.two_cores():
        logits = model.forward(Tensor(x.astype(model.dtype)), training=False)
        return parallel.split(ops.sigmoid, logits, axis=3).data


def persistence_forecast(x: np.ndarray, t_out: int) -> np.ndarray:
    """Repeat the last observed frame for every future step."""
    x = np.asarray(x)
    return np.repeat(x[..., -1:, :, :, :], t_out, axis=-4)


def rollout_eval(model: TideModel, dataset: SequenceDataset,
                 indices=None, taus=()) -> dict:
    """Globally accumulated metrics for the model and the persistence baseline.

    Each tau in taus also scores the model's masks at the fixed threshold
    probs >= tau, from the same forecast; those rows are returned in
    order as report["grid"], a list of (tau, scores) pairs. An empty
    dataset, or one whose windows or frames do not match the model's,
    raises ValueError; empty indices give the empty report (IoUs and
    ssim 1, mse 0).

    A two-stage pipeline inside parallel.two_cores(). The first forecast
    is a plain predict, on both cores. Then parallel.both() scores
    sequence i (metrics.score_sequence) on the helper while this thread
    forecasts sequence i+1 inline. This thread scores the last sequence
    and folds all Scores in index order, as a serial loop would sum them.
    BLAS gets its thread count back on return or raise, and helper
    errors raise here once it has finished. train()'s validation takes
    this path.
    """
    _check_dataset(dataset, model.config)
    if indices is None:
        indices = range(len(dataset))
    indices = list(indices)
    acc_model = MetricAccumulator()
    acc_pers = MetricAccumulator()
    acc_grid = [MetricAccumulator() for _ in taus]

    def forecast(i):  # sequence i's forecast, as the job that scores it
        x, y = dataset[i]
        return partial(score_sequence, predict(model, x[None])[0], y,
                       persistence_forecast(x, dataset.t_out), taus)

    def fold(scores):
        model_score, pers_score, grid_scores = scores
        acc_model.fold(model_score)
        acc_pers.fold(pers_score)
        for acc, score in zip(acc_grid, grid_scores):
            acc.fold(score)

    with parallel.two_cores():
        job = forecast(indices[0]) if indices else None
        for i in indices[1:]:
            scores, job = parallel.both(job, partial(forecast, i))
            fold(scores)
        if job is not None:
            fold(job())
    return {"model": acc_model.finalize(), "persistence": acc_pers.finalize(),
            "grid": [(tau, acc.finalize()) for tau, acc in zip(taus, acc_grid)]}


# ---------------------------------------------------------------------------
# benchmarking
# ---------------------------------------------------------------------------

def _traced_bytes(fn) -> tuple[int, int]:
    """Run fn() under tracemalloc and return (bytes still live after it,
    its result included, peak during it), both above the bytes held before
    the call. A caller's running trace is left running, with its peak
    reset."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()  # held, so that its bytes count as live
        live, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return live - base, peak - base


def estimate_activation_bytes(cfg: ModelConfig, batch: int = 1) -> int:
    """Bytes a recording forward (training=True under a Tape) keeps alive
    until backward, measured with tracemalloc: the input and everything the
    tape holds after one such forward of init_params(cfg, seed=0) on a
    fixed 25%-dense binary input (the density moves it by under 0.1%).
    Parameters are left out. At the learning-check config, batch 4, it
    reads 112.2 MiB."""
    model = init_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.random((batch, cfg.t_in, 2, cfg.height, cfg.width)) < 0.25

    def forward():
        with Tape() as tape:
            logits = model.forward(Tensor(x.astype(model.dtype)),
                                   training=True, rng=rng)
        return tape, logits

    return _traced_bytes(forward)[0]


def benchmark(model: TideModel, iters: int = 50, warmup: int = 5,
              seed: int = 0) -> dict:
    """Median/p95 latency of predict() at batch 1, the deployed forecast
    (two cores, with the sigmoid), and the tracemalloc peak of one more
    such call above the bytes held before it (traced_peak_bytes; run after
    the timed calls, which it would slow). The peak counts both threads'
    allocations, so it moves a little with how they overlap in time. A
    caller's running trace is left running, with its peak reset.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    cfg = model.config
    rng = np.random.default_rng(seed)
    x = (rng.random((1, cfg.t_in, 2, cfg.height, cfg.width)) < 0.25)
    for _ in range(warmup):
        predict(model, x)
    times = np.zeros(iters)
    for i in range(iters):
        t0 = time.perf_counter()
        predict(model, x)
        times[i] = (time.perf_counter() - t0) * 1e3
    traced_peak = _traced_bytes(lambda: predict(model, x))[1]
    return {
        "median_ms": float(np.median(times)),
        "p95_ms": float(np.percentile(times, 95)),
        "traced_peak_bytes": traced_peak,
        "n_params": count_params(model),
    }
