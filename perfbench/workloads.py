"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop: one client in one process, each operation
starting after the previous one ends. Inputs come from
`make_moving_bar_dataset` at the workload seed; the program sees only the
generated arrays and files. Every layer does dense work whose cost does not
depend on event density, so the workloads differ in model size, whether a
tape records, and how much metric work there is.

Operation i of a run repeats operation i % period, so its summary must
match the first one of the run and, for the seeds in refs.json, the value
recorded there.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import tempfile

import numpy as np

from etide import cli, metrics, training
from etide.model import ModelConfig, init_params, save_checkpoint

# Float32 tolerances for the reference comparisons. The references were
# recorded at one commit; a change that only reorders float32 arithmetic
# stays inside these, a wrong kernel does not. Running the same model in
# float64 moves the sums and losses below by under 1e-7 (relative); a 1%
# error in the GELU constant moves them by 1e-5 to 3e-3.
PROB_SUM_RTOL = 1e-6     # sum of 327,680 probabilities of one window
SPREAD_RTOL = 1e-5       # sum of (p - 1/2)^2; untrained p stay near 1/2
MASK_COUNT_RTOL = 1e-2   # a float32 nudge can move an Otsu bin edge
LOSS_RTOL = 1e-5         # train_loss and val_mse after four Adam steps
IOU_ATOL = 2e-3          # IoU scores: a nudged pixel can cross a threshold
PRINTED_ATOL = 2e-6      # MSE/SSIM printed with 6 decimals


class Workload:
    name = ""
    period = 1     # number of distinct operations

    def setup(self, seed: int, workdir: str) -> None:
        """Synthesize inputs, build the model, write the files."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work through the operation's code, so that lazy set-up
        (BLAS threads, first-touch memory) is done before timing."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before each operation."""

    def run(self, i: int):
        """Operation i: the timed part."""
        raise NotImplementedError

    def finish(self) -> None:
        """Untimed clean-up after each operation and its checks."""

    def items(self) -> int:
        """Items one operation completes: forecasts, training samples or
        evaluated sequences."""
        return 1

    def units(self) -> float:
        """Units of work the per-layer figures are given per, in one
        operation: forecasts, train steps or evaluated sequences."""
        return 1.0

    def check(self, result) -> list[str]:
        """Problems with the result; empty when it is fine."""
        raise NotImplementedError

    def summary(self, result) -> dict:
        """The values compared against the reference, JSON-serialisable."""
        raise NotImplementedError

    def compare(self, got: dict, want: dict) -> list[str]:
        """Problems of a summary against a reference summary."""
        raise NotImplementedError


def learning_check_config() -> ModelConfig:
    """The acceptance suite's learning-check model (gate 6)."""
    return ModelConfig(c_step=4, n_blocks=2, enc_widths=(16,),
                       dec_widths=(48, 24), droppath_rate=0.0)


def _is_binary(a: np.ndarray) -> bool:
    return bool(np.all((a == 0) | (a == 1)))


def _close(a: float, b: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


class ForecastFull(Workload):
    """`training.predict` on one window, then `metrics.binarize`, at the
    default full-scale ModelConfig and batch 1 (the deployment path)."""

    name = "forecast_full"
    period = 8  # distinct input windows

    def setup(self, seed: int, workdir: str) -> None:
        self.config = ModelConfig()
        self.data = training.make_moving_bar_dataset(
            self.period, height=self.config.height, width=self.config.width,
            t_in=self.config.t_in, t_out=self.config.t_out, seed=seed)
        self.model = init_params(self.config, seed=seed)
        self.batch = 1

    def warm_up(self) -> None:
        self.run(0)

    def run(self, i: int):
        x, _ = self.data[i % self.period]
        probs = training.predict(self.model, x)
        return probs, metrics.binarize(probs[0])

    def check(self, result) -> list[str]:
        probs, mask = result
        cfg = self.config
        shape = (cfg.t_out, 2, cfg.height, cfg.width)
        problems = []
        if probs.shape != (1,) + shape:
            problems.append(f"probabilities have shape {probs.shape}")
        elif not np.all(np.isfinite(probs)):
            problems.append("probabilities are not finite")
        elif probs.min() < 0.0 or probs.max() > 1.0:
            problems.append("probabilities leave [0, 1]")
        if mask.shape != shape or not _is_binary(mask):
            problems.append(f"mask of shape {mask.shape} is not a binary "
                            f"{shape} tensor")
        return problems

    def summary(self, result) -> dict:
        probs, mask = result
        p = probs.astype(np.float64)
        return {"prob_sum": float(p.sum()),
                "prob_spread": float(((p - 0.5) ** 2).sum()),
                "mask_count": int(mask.sum(dtype=np.int64))}

    def compare(self, got: dict, want: dict) -> list[str]:
        problems = []
        if not _close(got["prob_sum"], want["prob_sum"], rtol=PROB_SUM_RTOL):
            problems.append(f"probability sum {got['prob_sum']!r} != "
                            f"{want['prob_sum']!r}")
        if not _close(got["prob_spread"], want["prob_spread"],
                      rtol=SPREAD_RTOL):
            problems.append(f"probability spread {got['prob_spread']!r} != "
                            f"{want['prob_spread']!r}")
        if not _close(got["mask_count"], want["mask_count"],
                      rtol=MASK_COUNT_RTOL):
            problems.append(f"mask count {got['mask_count']} != "
                            f"{want['mask_count']}")
        return problems


class TrainSmall(Workload):
    """`training.train()` on the learning-check config: 128², batch 4,
    lr 2e-3, two epochs of 8 training sequences plus one validation
    sequence (val_split 0.1), with per-epoch checkpoints in a fresh
    directory."""

    name = "train_small"
    sequences = 9
    epochs = 2

    def setup(self, seed: int, workdir: str) -> None:
        model_cfg = learning_check_config()
        self.config = model_cfg
        self.seed = seed
        self.workdir = workdir
        self.data = training.make_moving_bar_dataset(
            self.sequences, height=model_cfg.height, width=model_cfg.width,
            t_in=model_cfg.t_in, t_out=model_cfg.t_out, seed=seed)
        self.train_cfg = training.TrainConfig(
            epochs=self.epochs, batch_size=4, lr=2e-3, seed=seed,
            model=model_cfg)
        self.batch = self.train_cfg.batch_size
        train_idx, _ = training.split_indices(self.sequences,
                                              self.train_cfg.val_split)
        self.n_train = len(train_idx)
        self.steps = self.epochs * -(-self.n_train // self.batch)
        self.model = init_params(model_cfg, seed=seed)

    def warm_up(self) -> None:
        """A validation-sized predict and one batch-4 step: the first
        backward pass otherwise pays for faulting in the tape's memory."""
        x, _ = self.data[0]
        training.predict(self.model, x)
        four = training.SequenceDataset(self.data.inputs[:4],
                                        self.data.targets[:4])
        training.train(init_params(self.config, seed=self.seed), four,
                       training.TrainConfig(epochs=1, batch_size=4,
                                            lr=2e-3, seed=self.seed,
                                            model=self.config))

    def items(self) -> int:
        return self.n_train * self.epochs

    def units(self) -> float:
        return float(self.steps)

    def prepare(self):
        """Untimed: a fresh model and checkpoint directory per operation."""
        self.model = init_params(self.config, seed=self.seed)
        self.out_dir = tempfile.mkdtemp(prefix="train-", dir=self.workdir)

    def run(self, i: int):
        return training.train(self.model, self.data, self.train_cfg,
                              out_dir=self.out_dir)

    def finish(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def check(self, result) -> list[str]:
        model, history = result
        problems = []
        if len(history) != self.epochs:
            return [f"{len(history)} epoch records, expected {self.epochs}"]
        for rec in history:
            loss = rec["train_loss"]
            if not (math.isfinite(loss) and loss > 0.0):
                problems.append(f"epoch {rec['epoch']}: loss {loss!r}")
            for key in ("val_iou_on", "val_iou_off", "val_miou", "val_aiou",
                        "val_mse", "baseline_miou", "baseline_aiou"):
                if not 0.0 <= rec[key] <= 1.0:
                    problems.append(f"epoch {rec['epoch']}: {key} "
                                    f"{rec[key]!r} outside [0, 1]")
            if not -1.0 <= rec["val_ssim"] <= 1.0:
                problems.append(f"epoch {rec['epoch']}: val_ssim "
                                f"{rec['val_ssim']!r}")
        if not all(np.all(np.isfinite(p.data)) for p in model.parameters()):
            problems.append("trained weights are not finite")
        for epoch in range(1, self.epochs + 1):
            ckpt = os.path.join(self.out_dir, f"ckpt_{epoch:04d}.etw")
            if not os.path.isfile(ckpt + ".opt.npz"):
                problems.append(f"no optimizer state beside {ckpt}")
            try:
                with open(ckpt, "rb") as fh:
                    magic = fh.read(4)
            except OSError as exc:
                problems.append(f"checkpoint unreadable: {exc}")
                continue
            if magic != b"ETW1":
                problems.append(f"{ckpt} starts with {magic!r}")
        return problems

    def summary(self, result) -> dict:
        _, history = result
        return {key: [r[key] for r in history]
                for key in ("train_loss", "val_mse", "val_aiou")}

    def compare(self, got: dict, ref: dict) -> list[str]:
        problems = []
        for key, want_epochs in ref.items():
            for epoch, (a, b) in enumerate(zip(got[key], want_epochs), 1):
                ok = (_close(a, b, atol=IOU_ATOL) if key == "val_aiou"
                      else _close(a, b, rtol=LOSS_RTOL))
                if not ok:
                    problems.append(f"epoch {epoch}: {key} {a!r} != {b!r}")
        return problems


class EvalGrid(Workload):
    """`etide eval --threshold-grid` run in process through `cli.main`, on
    an OCM1 dataset and an ETW1 checkpoint (learning-check config) that
    set-up wrote."""

    name = "eval_grid"
    sequences = 4
    taus = tuple(round(0.1 * i, 1) for i in range(1, 10))
    keys = ("iou_on", "iou_off", "miou", "aiou", "mse", "ssim")

    def setup(self, seed: int, workdir: str) -> None:
        self.config = learning_check_config()
        self.batch = 1
        cfg = self.config
        data = training.make_moving_bar_dataset(
            self.sequences, height=cfg.height, width=cfg.width,
            t_in=cfg.t_in, t_out=cfg.t_out, seed=seed)
        self.data_dir = os.path.join(workdir, "data")
        self.ckpt = os.path.join(workdir, "model.etw")
        training.save_dataset(data, self.data_dir)
        self.model = init_params(cfg, seed=seed)
        save_checkpoint(self.ckpt, self.model)
        self.first_input = data[0][0]

    def warm_up(self) -> None:
        training.predict(self.model, self.first_input)

    def items(self) -> int:
        return self.sequences

    def units(self) -> float:
        return float(self.sequences)

    def run(self, i: int):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["eval", "--ckpt", self.ckpt, "--data",
                             self.data_dir, "--threshold-grid"])
        return code, out.getvalue()

    def parse(self, text: str) -> dict:
        """Rows keyed "model", "persistence" and "grid tau=0.1".."0.9"."""
        rows = {}
        for line in text.splitlines():
            words = line.split()
            if not words or "=" not in words[-1]:
                continue
            label = words[0] if words[0] != "grid" else " ".join(words[:2])
            fields = words[1:] if words[0] != "grid" else words[2:]
            rows[label] = {k: float(v) for k, v in
                           (w.split("=", 1) for w in fields)}
        return rows

    def check(self, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"cli.main returned {code}"]
        rows = self.parse(text)
        expected = (["model", "persistence"]
                    + [f"grid tau={tau:.1f}" for tau in self.taus])
        if sorted(rows) != sorted(expected):
            return [f"printed rows {sorted(rows)}, expected {expected}"]
        problems = []
        for label, row in rows.items():
            keys = self.keys if not label.startswith("grid") else self.keys[:4]
            if tuple(row) != keys:
                problems.append(f"row {label!r} has keys {tuple(row)}")
                continue
            for key, value in row.items():
                low = -1.0 if key == "ssim" else 0.0
                if not (math.isfinite(value) and low <= value <= 1.0):
                    problems.append(f"row {label!r}: {key}={value!r}")
        return problems

    def summary(self, result) -> dict:
        return self.parse(result[1])

    def compare(self, got: dict, ref: dict) -> list[str]:
        problems = []
        for label, row in ref.items():
            for key, want in row.items():
                have = got.get(label, {}).get(key)
                atol = PRINTED_ATOL if key in ("mse", "ssim") else IOU_ATOL
                if have is None or not _close(have, want, atol=atol):
                    problems.append(f"{label} {key}={have!r} != reference "
                                    f"{want!r}")
        return problems


WORKLOADS = {w.name: w for w in (ForecastFull, TrainSmall, EvalGrid)}
