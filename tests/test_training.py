"""Training-loop tests.

Adam is checked against a plain-float reference implementation, the data
pipeline against binning semantics, and the loop against determinism,
overfit-smoke, and resume-equivalence contracts.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from etide import training
from etide.losses import LossConfig
from etide.metrics import MetricAccumulator, binarize, score_sequence
from etide.model import (CheckpointError, ModelConfig, init_params,
                         load_checkpoint)
from etide.numerics import Tape, Tensor, parallel
from etide.numerics.tensor import Parameter
from etide.training import (AdamState, SequenceDataset, TrainConfig,
                            adam_step, benchmark, estimate_activation_bytes,
                            grad_norm, load_dataset, make_moving_bar_dataset,
                            persistence_forecast, predict, rollout_eval,
                            save_dataset, split_indices, train)
from etide.util import config_from_text

from conftest import assert_mutations_rejected


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def adam_oracle(x0, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar Adam trajectory with plain Python floats."""
    x, m, v = float(x0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x -= lr * mh / (vh ** 0.5 + eps)
    return x


def blas_thread_counts():
    return [get() for get, _ in filter(None, map(
        parallel._thread_count_functions, parallel._openblas_libraries()))]


def tiny_model_cfg(**overrides):
    base = dict(t_in=3, t_out=3, height=16, width=16, c_step=2, n_blocks=1,
                enc_widths=(4,), dec_widths=(8, 4), droppath_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_cfg(**overrides):
    base = dict(epochs=2, batch_size=2, seed=0, val_split=0.25,
                model=tiny_model_cfg(),
                loss=LossConfig(alpha_ddr=0.1))
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(n=8, seed=0, h=16, w=16):
    return make_moving_bar_dataset(n, height=h, width=w, t_in=3, t_out=3,
                                   seed=seed, n_objects=(1, 2))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter(np.array([0.5]), "w", dtype=np.float64)
        model = _ParamBag([p])
        state = AdamState(model)
        adam_step([p], {p: np.array([1.0])}, state, lr=1e-3)
        assert p.data[0] == pytest.approx(0.5 - 1e-3, abs=1e-9)
        assert state.step == 1

    def test_matches_scalar_oracle(self):
        grads = [1.0, -0.3, 0.7, 0.01, -2.0, 0.4]
        p = Parameter(np.array([0.25]), "w", dtype=np.float64)
        state = AdamState(_ParamBag([p]))
        for g in grads:
            adam_step([p], {p: np.array([g])}, state, lr=1e-3)
        assert p.data[0] == pytest.approx(adam_oracle(0.25, grads), abs=1e-12)

    def test_zero_grad_keeps_params(self):
        p = Parameter(np.array([1.0, -2.0]), "w", dtype=np.float64)
        state = AdamState(_ParamBag([p]))
        adam_step([p], {p: np.zeros(2)}, state)
        assert np.array_equal(p.data, [1.0, -2.0])
        assert state.step == 1

    def test_missing_grad_treated_as_zero(self):
        p = Parameter(np.array([3.0]), "w", dtype=np.float64)
        state = AdamState(_ParamBag([p]))
        adam_step([p], {}, state)
        assert p.data[0] == 3.0

    def test_grad_clip_rescales(self):
        p = Parameter(np.array([0.0]), "w", dtype=np.float64)
        state = AdamState(_ParamBag([p]))
        adam_step([p], {p: np.array([10.0])}, state, lr=1e-3, grad_clip=1.0)
        clipped = adam_oracle(0.0, [1.0], lr=1e-3)
        assert p.data[0] == pytest.approx(clipped, abs=1e-12)

    def test_grad_norm_is_global_and_reused_by_clip(self):
        p = Parameter(np.array([3.0]), "w", dtype=np.float64)
        q = Parameter(np.array([0.0, 0.0]), "v", dtype=np.float64)
        r = Parameter(np.array([1.0]), "u", dtype=np.float64)
        grads = {p: np.array([3.0]), q: np.array([0.0, 4.0])}
        assert grad_norm([p, q, r], grads) == 5.0
        state = AdamState(_ParamBag([p, q, r]))
        # a given norm is used as is: 10 against a clip of 1 scales by 0.1
        adam_step([p, q, r], grads, state, lr=1e-3, grad_clip=1.0, norm=10.0)
        assert p.data[0] == pytest.approx(
            adam_oracle(3.0, [0.3], lr=1e-3), abs=1e-12)

    def test_state_roundtrip(self, tmp_path):
        cfg = tiny_model_cfg()
        model = init_params(cfg, seed=0)
        state = AdamState(model)
        rng = np.random.default_rng(0)
        grads = {p: rng.normal(size=p.shape).astype(p.dtype)
                 for p in model.parameters()}
        adam_step(model.parameters(), grads, state)
        path = tmp_path / "state.opt.npz"
        state.save(path)
        loaded = AdamState.load(path, model)
        assert loaded.step == state.step
        for name in state.m:
            assert np.array_equal(loaded.m[name], state.m[name])
            assert np.array_equal(loaded.v[name], state.v[name])

    @pytest.mark.parametrize("key", ["step", "m:head.b"])
    def test_state_missing_entry_raises_value_error(self, tmp_path, key):
        model = init_params(tiny_model_cfg(), seed=0)
        path = tmp_path / "state.opt.npz"
        AdamState(model).save(path)
        with np.load(path) as npz:
            arrays = dict(npz)
        del arrays[key]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"missing '{key}'"):
            AdamState.load(path, model)

    @pytest.mark.parametrize("key,value", [("m:head.b", np.nan),
                                           ("v:enc0.conv.w", np.inf),
                                           ("m:head.w", -np.inf)])
    def test_state_nonfinite_entry_raises_checkpoint_error(self, tmp_path,
                                                           key, value):
        model = init_params(tiny_model_cfg(), seed=0)
        path = tmp_path / "state.opt.npz"
        AdamState(model).save(path)
        with np.load(path) as npz:
            arrays = dict(npz)
        arrays[key].flat[-1] = value
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError,
                           match=f"{path}: optimizer entry '{key}' has "
                                 f"non-finite values"):
            AdamState.load(path, model)


    def test_state_mutations_load_or_raise(self, tmp_path):
        # zipfile's NotImplementedError (a compression method or an
        # encryption it lacks) among them
        model = init_params(tiny_model_cfg(), seed=0)
        AdamState(model).save(tmp_path / "state.opt.npz")
        raw = (tmp_path / "state.opt.npz").read_bytes()
        for seed in (3, 4):
            assert_mutations_rejected(
                tmp_path / "mutated.opt.npz", raw, 64,
                lambda path: AdamState.load(path, model),
                (CheckpointError, ValueError), seed=seed)

    def test_state_unsupported_compression_raises_checkpoint_error(
            self, tmp_path):
        model = init_params(tiny_model_cfg(), seed=0)
        path = tmp_path / "state.opt.npz"
        AdamState(model).save(path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"PK\x01\x02") + 10  # an entry's compression method
        raw[at:at + 2] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError,
                           match=f"{path}: unreadable optimizer state"):
            AdamState.load(path, model)

    @pytest.mark.parametrize("key,value", [
        ("step", np.array([1, 2])), ("epochs_done", np.array(-1)),
        ("step", np.array(-3)), ("step", np.array(1.5))],
        ids=["two-element-step", "negative-epochs_done", "negative-step",
             "fractional-step"])
    def test_state_bad_counter_raises_checkpoint_error(self, tmp_path, key,
                                                       value):
        model = init_params(tiny_model_cfg(), seed=0)
        path = tmp_path / "state.opt.npz"
        AdamState(model).save(path)
        with np.load(path) as npz:
            arrays = dict(npz)
        arrays[key] = value
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError,
                           match=f"{path}: optimizer entry '{key}' must be a "
                                 f"non-negative 0-d integer"):
            AdamState.load(path, model)


class _ParamBag:
    """Minimal stand-in exposing parameters() for AdamState."""

    def __init__(self, params):
        self._params = list(params)

    def parameters(self):
        return self._params


# ---------------------------------------------------------------------------
# config text
# ---------------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 4 and cfg.lr == 1e-3

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_text(TrainConfig, "momentum=0.9\n")

    def test_unknown_loss_key_rejected(self):
        with pytest.raises(ValueError, match="unknown loss"):
            config_from_text(TrainConfig, "loss.delta=1\n")

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(val_split=1.0)


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

class TestDataset:
    def test_moving_bar_shapes_and_binary(self):
        ds = tiny_dataset(4)
        assert len(ds) == 4
        x, y = ds[0]
        assert x.shape == (3, 2, 16, 16) and y.shape == (3, 2, 16, 16)
        assert x.dtype == np.uint8
        assert set(np.unique(ds.inputs)) <= {0, 1}

    def test_moving_bar_deterministic(self):
        a = tiny_dataset(3, seed=5)
        b = tiny_dataset(3, seed=5)
        c = tiny_dataset(3, seed=6)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_sequences_have_events(self):
        ds = tiny_dataset(6)
        # frame 0 is empty by construction; later frames must carry motion
        assert ds.inputs[:, 1:].sum() > 0
        assert ds.targets.sum() > 0

    def test_save_load_roundtrip(self, tmp_path):
        ds = tiny_dataset(3)
        save_dataset(ds, tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(manifest) == 3
        back = load_dataset(tmp_path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)
        assert back.bin_duration == ds.bin_duration

    def test_empty_dataset_dir(self, tmp_path):
        save_dataset(SequenceDataset(
            np.zeros((0, 3, 2, 8, 8), dtype=np.uint8),
            np.zeros((0, 3, 2, 8, 8), dtype=np.uint8)), tmp_path)
        assert (tmp_path / "manifest.txt").read_text() == ""
        assert len(load_dataset(tmp_path)) == 0

    def test_split_indices(self):
        tr, va = split_indices(10, 0.2)
        assert tr == list(range(8)) and va == [8, 9]
        tr, va = split_indices(1, 0.9)
        assert tr == [0] and va == []

    def test_rejects_nonbinary(self):
        # checked as given: a uint8 cast first would read -1 as 255, and
        # 0.5 as 0, 1.7 as 1 and 256.0 as 0
        ok = np.zeros((1, 2, 2, 4, 4), dtype=np.uint8)
        for bad in (np.full(ok.shape, 3, dtype=np.uint8),
                    np.full(ok.shape, 2, dtype=np.uint8),
                    np.full(ok.shape, -1, dtype=np.int8),
                    np.full(ok.shape, 0.5), np.full(ok.shape, 1.7),
                    np.full(ok.shape, 256.0)):
            for side, args in (("inputs", (bad, ok)), ("targets", (ok, bad))):
                with pytest.raises(ValueError,
                                   match=f"^{side} must be binary$"):
                    SequenceDataset(*args)

    def test_accepts_empty(self):
        empty = np.zeros((0, 2, 2, 4, 4), dtype=np.uint8)
        assert len(SequenceDataset(empty, empty)) == 0


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class TestTrainLoop:
    def test_zero_epochs_returns_init(self):
        cfg = tiny_train_cfg(epochs=0)
        model = init_params(cfg.model, seed=1)
        before = {p.name: p.data.copy() for p in model.parameters()}
        _, history = train(model, tiny_dataset(4), cfg)
        assert history == []
        for p in model.parameters():
            assert np.array_equal(p.data, before[p.name])

    def test_deterministic_trajectory(self):
        cfg = tiny_train_cfg(epochs=2)
        ds = tiny_dataset(6)
        runs = []
        for _ in range(2):
            model = init_params(cfg.model, seed=3)
            _, history = train(model, ds, cfg)
            runs.append(({p.name: p.data.copy() for p in model.parameters()},
                         history))
        params_a, hist_a = runs[0]
        params_b, hist_b = runs[1]
        assert hist_a == hist_b
        for name in params_a:
            assert np.array_equal(params_a[name], params_b[name])

    def test_history_records(self):
        cfg = tiny_train_cfg(epochs=2)
        _, history = train(init_params(cfg.model, seed=0), tiny_dataset(8), cfg)
        assert [r["epoch"] for r in history] == [1, 2]
        assert all("train_loss" in r and "val_aiou" in r for r in history)
        assert all("baseline_aiou" in r for r in history)
        assert all(r["grad_norm"] > 0 for r in history)

    def test_grad_norm_record_of_one_step_epoch(self):
        # one training sequence and no validation: the epoch is one step,
        # so its mean gradient norm is that step's norm, recomputed here
        from etide.losses import total_loss
        cfg = tiny_train_cfg(epochs=1, val_split=0.0)
        ds = tiny_dataset(1)
        _, history = train(init_params(cfg.model, seed=4), ds, cfg)

        model = init_params(cfg.model, seed=4)
        x = ds.inputs[[0]].astype(np.float32)
        y = ds.targets[[0]].astype(np.float32)
        with Tape() as tape:
            grads = tape.backward(total_loss(
                model.forward(Tensor(x), training=True), y, cfg.loss))
        assert history[0]["grad_norm"] == grad_norm(model.parameters(), grads)

    def test_validation_below_the_ssim_window_fails_before_a_step(
            self, monkeypatch):
        steps = []
        monkeypatch.setattr(training, "adam_step",
                            lambda *args, **kwargs: steps.append(args))
        small = tiny_model_cfg(height=8, width=8)
        ds = tiny_dataset(4, h=8, w=8)
        cfg = tiny_train_cfg(val_split=0.5, model=small)
        with pytest.raises(ValueError, match="smaller than the 11x11 window"):
            train(init_params(small, seed=0), ds, cfg)
        assert steps == []
        monkeypatch.undo()
        # with no validation, 8x8 frames still train
        cfg = tiny_train_cfg(epochs=1, val_split=0.0, model=small)
        _, history = train(init_params(small, seed=0), ds, cfg)
        assert [r["epoch"] for r in history] == [1]

    def test_overfit_single_sample(self):
        cfg = tiny_train_cfg(epochs=50, batch_size=1, lr=3e-3, val_split=0.0,
                             loss=LossConfig(alpha_ddr=0.0))
        ds = tiny_dataset(1)
        model = init_params(cfg.model, seed=0)
        _, history = train(model, ds, cfg)
        assert history[-1]["train_loss"] < 0.5 * history[0]["train_loss"]

    def test_resume_matches_unbroken(self, tmp_path):
        ds = tiny_dataset(6)
        cfg2 = tiny_train_cfg(epochs=2)

        unbroken = init_params(cfg2.model, seed=7)
        _, hist_full = train(unbroken, ds, cfg2)

        cfg1 = tiny_train_cfg(epochs=1)
        first = init_params(cfg1.model, seed=7)
        _, _ = train(first, ds, cfg1, out_dir=tmp_path)
        ckpt = tmp_path / "ckpt_0001.etw"
        resumed = load_checkpoint(ckpt)
        state = AdamState.load(str(ckpt) + ".opt.npz", resumed)
        assert state.epochs_done == 1
        _, hist_tail = train(resumed, ds, cfg2, state=state)

        assert len(hist_tail) == 1
        assert hist_tail[0]["train_loss"] == pytest.approx(
            hist_full[1]["train_loss"], abs=1e-7)
        for p, q in zip(unbroken.parameters(), resumed.parameters()):
            assert np.array_equal(p.data, q.data), p.name

    def test_nonfinite_step_raises_before_checkpoint(self, tmp_path):
        cfg = tiny_train_cfg(epochs=2)
        model = init_params(cfg.model, seed=0)
        model["blk0.pw.b"].data[0] = np.nan
        with pytest.raises(ValueError, match=r"epoch 1, step 1; "
                           r"first bad parameter: blk0\.pw\.b"):
            train(model, tiny_dataset(4), cfg, out_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_checkpoints_written_at_interval(self, tmp_path):
        cfg = tiny_train_cfg(epochs=4, checkpoint_interval=2)
        train(init_params(cfg.model, seed=0), tiny_dataset(4), cfg,
              out_dir=tmp_path)
        names = sorted(f.name for f in tmp_path.iterdir())
        assert "ckpt_0002.etw" in names and "ckpt_0004.etw" in names
        assert "ckpt_0001.etw" not in names

    def test_gradient_reaches_every_parameter(self):
        from etide.losses import total_loss
        # gate_reduction 2 keeps several gate hidden units; with the default
        # single hidden unit one unlucky init can dead-ReLU the whole gate
        cfg = tiny_model_cfg(gate_reduction=2)
        model = init_params(cfg, seed=2)
        rng = np.random.default_rng(0)
        x = (rng.random((2, 3, 2, 16, 16)) < 0.3).astype(np.float32)
        y = (rng.random((2, 3, 2, 16, 16)) < 0.3).astype(np.float32)
        with Tape() as tape:
            loss = total_loss(model.forward(Tensor(x), training=True,
                                            rng=np.random.default_rng(1)),
                              y, LossConfig())
            grads = tape.backward(loss)
        for p in model.parameters():
            assert p in grads and np.abs(grads[p]).sum() > 0, p.name

    def test_dataset_model_mismatch_rejected(self):
        cfg = tiny_train_cfg()
        with pytest.raises(ValueError, match="do not match"):
            train(init_params(cfg.model, seed=0),
                  make_moving_bar_dataset(2, height=8, width=8, t_in=3,
                                          t_out=3, seed=0), cfg)

    @pytest.mark.parametrize("variant", [
        dict(loss=LossConfig(lambda_on=0.5, lambda_off=0.5)),
        dict(model=tiny_model_cfg(use_activity_mask=False)),
        dict(model=tiny_model_cfg(use_multiplicative_residual=False)),
        dict(loss=LossConfig(alpha_ddr=0.0)),
    ])
    def test_ablation_variants_train(self, variant):
        cfg = tiny_train_cfg(epochs=1, **variant)
        _, history = train(init_params(cfg.model, seed=0), tiny_dataset(4), cfg)
        assert np.isfinite(history[0]["train_loss"])


    def test_droppath_resume_matches_unbroken(self, tmp_path):
        # each part of a step draws from its own (seed, epoch, step, part)
        # stream, so a resumed run replays the drop-path masks too
        model_cfg = tiny_model_cfg(droppath_rate=0.2)
        ds = tiny_dataset(10)
        cfg2 = tiny_train_cfg(epochs=2, batch_size=4, model=model_cfg)
        unbroken = init_params(model_cfg, seed=5)
        _, hist_full = train(unbroken, ds, cfg2)

        cfg1 = tiny_train_cfg(epochs=1, batch_size=4, model=model_cfg)
        train(init_params(model_cfg, seed=5), ds, cfg1, out_dir=tmp_path)
        ckpt = tmp_path / "ckpt_0001.etw"
        resumed = load_checkpoint(ckpt)
        state = AdamState.load(str(ckpt) + ".opt.npz", resumed)
        _, hist_tail = train(resumed, ds, cfg2, state=state)

        assert hist_tail == hist_full[1:]
        for p, q in zip(unbroken.parameters(), resumed.parameters()):
            assert p.data.tobytes() == q.data.tobytes(), p.name


class TestSplitStep:
    """A step cuts its batch at len // 2 and runs the two parts on the one
    model, each on its own thread and tape."""

    def test_summed_parts_match_the_unsplit_gradient(self):
        # At batch 4 each part's loss is scaled by 1/2, a power of two, and
        # ops.linear gives every window its batch-1 forward, so each
        # window's gradient reaching the parameters has the unsplit step's
        # bits. Only the reductions over the batch (the GEMMs and sums of
        # the parameter gradients) add in another order: float32 rounding
        # of the terms summed. Over 30 seeds that moved no parameter's
        # gradient by more than 1.5e-6 of its largest entry.
        from etide.losses import total_loss
        cfg = tiny_train_cfg(model=tiny_model_cfg(), batch_size=4)
        ds = tiny_dataset(8)
        batch = np.arange(4)
        for seed in range(3):
            model = init_params(cfg.model, seed=seed)
            with parallel.two_cores():
                loss, grads = training._step_gradient(model, ds, cfg, 0, 0,
                                                      batch)
            with Tape() as tape:
                want_loss = total_loss(model.forward(
                    Tensor(ds.inputs[batch].astype(np.float32)),
                    training=True), ds.targets[batch], cfg.loss)
                want = tape.backward(want_loss)
            assert float(loss) == pytest.approx(float(want_loss.data),
                                                rel=1e-6)
            for p in model.parameters():
                bound = 1e-5 * np.abs(want[p]).max()
                assert np.abs(grads[p] - want[p]).max() <= bound, p.name

    def test_threads_or_serial_give_the_same_weights(self, monkeypatch):
        cfg = tiny_train_cfg(epochs=1, batch_size=4, val_split=0.0)
        ds = tiny_dataset(4)

        def one_step():
            model = init_params(cfg.model, seed=1)
            train(model, ds, cfg)
            return [p.data.tobytes() for p in model.parameters()]
        threaded = one_step()
        monkeypatch.setattr(parallel, "_splits", lambda: False)
        assert one_step() == threaded

    @pytest.mark.parametrize("n,batch_size,sizes", [
        (8, 4, [(2, 2), (2, 2)]),
        (3, 3, [(1, 2)]),
        (2, 1, [(1,), (1,)]),
        (5, 4, [(2, 2), (1,)]),  # the epoch's last batch holds one
    ], ids=["4+4", "3", "1+1", "4+1"])
    def test_parts_of_each_step(self, n, batch_size, sizes, submitted,
                                monkeypatch):
        # sizes: each step's part sizes in part order; a step of two parts
        # hands part A to the helper, a batch of one runs alone here
        parts = []
        real = training._part_step

        def _part_step(model, dataset, cfg, epoch, step, part, index,
                       share):
            parts.append((step, index, len(part)))
            return real(model, dataset, cfg, epoch, step, part, index, share)
        monkeypatch.setattr(training, "_part_step", _part_step)
        cfg = tiny_train_cfg(epochs=1, batch_size=batch_size, val_split=0.0)
        train(init_params(cfg.model, seed=0), tiny_dataset(n), cfg)
        assert sorted(parts) == [(step, index, size)
                                 for step, step_sizes in enumerate(sizes)
                                 for index, size in enumerate(step_sizes)]
        assert submitted == ["_part_step"] * sum(len(w) == 2 for w in sizes)

    @pytest.mark.parametrize("index", [0, 1])
    def test_nonfinite_logits_in_either_part_raise_before_adam(
            self, index, tmp_path, monkeypatch):
        cfg = tiny_train_cfg(epochs=1, batch_size=4, val_split=0.0)
        ds = tiny_dataset(8)
        model = init_params(cfg.model, seed=0)
        order = np.random.default_rng(
            [cfg.seed, training._SHUFFLE_TAG, 0]).permutation(8)
        part = order[4:6] if index == 0 else order[6:8]  # of step 2
        poisoned = ds.inputs[part].astype(np.float32)
        forward = model.forward

        def poisoning(x, **kwargs):  # that part sets a NaN bias
            if np.array_equal(x.data, poisoned):
                model["head.b"].data[0] = np.nan
            return forward(x, **kwargs)
        monkeypatch.setattr(model, "forward", poisoning)
        steps = []
        adam = training.adam_step
        monkeypatch.setattr(training, "adam_step",
                            lambda *a, **k: steps.append(adam(*a, **k)))
        with pytest.raises(ValueError, match=r"non-finite logits at epoch 1, "
                           r"step 2; first bad parameter: head\.b"):
            train(model, ds, cfg, out_dir=tmp_path)
        assert len(steps) == 1
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# inference, baseline, benchmark
# ---------------------------------------------------------------------------

class TestEval:
    def test_predict_shape_and_range(self):
        cfg = tiny_model_cfg()
        model = init_params(cfg, seed=0)
        x = tiny_dataset(2).inputs
        probs = predict(model, x)
        assert probs.shape == (2, 3, 2, 16, 16)
        assert np.all((probs > 0) & (probs < 1))

    def test_predict_accepts_single_sequence(self):
        cfg = tiny_model_cfg()
        model = init_params(cfg, seed=0)
        x, _ = tiny_dataset(1)[0]
        assert predict(model, x).shape == (1, 3, 2, 16, 16)

    def test_persistence_forecast(self):
        x = np.zeros((2, 3, 2, 4, 4), dtype=np.uint8)
        x[:, -1, :, 1, 1] = 1
        out = persistence_forecast(x, 5)
        assert out.shape == (2, 5, 2, 4, 4)
        for t in range(5):
            assert np.array_equal(out[:, t], x[:, -1])

    def test_persistence_baseline_perfect_on_static_targets(self):
        ds = tiny_dataset(3)
        static = SequenceDataset(
            ds.inputs, np.repeat(ds.inputs[:, -1:], 3, axis=1))
        cfg = tiny_model_cfg()
        report = rollout_eval(init_params(cfg, seed=0), static)
        assert report["persistence"]["miou"] == 1.0
        assert report["persistence"]["aiou"] == 1.0

    def test_eval_rejects_mismatched_dataset(self):
        model = init_params(tiny_model_cfg(), seed=0)
        with pytest.raises(ValueError, match="do not match"):
            rollout_eval(model, make_moving_bar_dataset(
                1, height=8, width=8, t_in=3, t_out=3, seed=0))

    def test_eval_rejects_frames_below_the_ssim_window_first(self,
                                                              monkeypatch):
        forecasts = []
        monkeypatch.setattr(training, "predict",
                            lambda *args: forecasts.append(args))
        model = init_params(tiny_model_cfg(height=8, width=8), seed=0)
        with pytest.raises(ValueError, match="smaller than the 11x11 window"):
            rollout_eval(model, tiny_dataset(2, h=8, w=8))
        assert forecasts == []

    def test_eval_deterministic(self):
        ds = tiny_dataset(3)
        model = init_params(tiny_model_cfg(), seed=1)
        a = rollout_eval(model, ds)
        b = rollout_eval(model, ds)
        assert a == b

    def test_pipeline_matches_serial_reference(self):
        ds = make_moving_bar_dataset(5, height=16, width=16, t_in=3,
                                     t_out=3, seed=4)
        model = init_params(tiny_model_cfg(), seed=2)
        taus = (0.3, 0.5, 0.7)
        indices = [4, 0, 2, 3]
        accs = [MetricAccumulator() for _ in range(2 + len(taus))]
        for i in indices:
            x, y = ds[i]
            probs = predict(model, x[None])[0]
            accs[0].update(binarize(probs), y, probs)
            pers = persistence_forecast(x, ds.t_out)
            accs[1].update(pers, y, pers.astype(np.float64))
            for tau, acc in zip(taus, accs[2:]):
                acc.update((probs >= tau).astype(np.uint8), y)
        want = {"model": accs[0].finalize(),
                "persistence": accs[1].finalize(),
                "grid": [(tau, acc.finalize())
                         for tau, acc in zip(taus, accs[2:])]}
        assert rollout_eval(model, ds, indices=indices, taus=taus) == want

    def test_scores_all_but_the_last_sequence_on_a_worker(self,
                                                          monkeypatch):
        threads = []

        def recording(*args):
            threads.append(threading.current_thread())
            return score_sequence(*args)
        monkeypatch.setattr(training, "score_sequence", recording)
        model = init_params(tiny_model_cfg(), seed=0)
        for n in (3, 1):
            threads.clear()
            rollout_eval(model, tiny_dataset(n))
            main = threading.main_thread()
            assert [t is main for t in threads] == [False] * (n - 1) + [True]
            assert all(t.name.startswith(parallel.HELPER_NAME)
                       for t in threads[:-1])

    def test_worker_error_raises_here_and_leaves_no_thread(self):
        ds = tiny_dataset(4)
        ds.targets[2, 1, 0, 3, 3] = 2  # scored on the worker
        model = init_params(tiny_model_cfg(), seed=0)
        rollout_eval(model, tiny_dataset(2))  # the helper exists from here on
        counts = blas_thread_counts()
        threads = threading.active_count()
        with pytest.raises(ValueError, match="target mask must be binary"):
            rollout_eval(model, ds)
        assert threading.active_count() == threads
        assert blas_thread_counts() == counts


class TestBenchmark:
    def test_reports_keys(self):
        model = init_params(tiny_model_cfg(), seed=0)
        out = benchmark(model, iters=5, warmup=1)
        assert out["median_ms"] > 0
        assert out["p95_ms"] >= out["median_ms"]
        assert out["moving_bar_median_ms"] > 0
        assert out["traced_peak_bytes"] > 0
        assert out["n_params"] == sum(p.data.size
                                      for p in model.parameters())

    def test_moving_bar_figure_times_its_window(self, monkeypatch):
        # the moving-bar figure forecasts the first window of
        # make_moving_bar_dataset(seed=seed); the other, the random one
        model = init_params(tiny_model_cfg(), seed=0)
        want = training.make_moving_bar_dataset(
            1, height=16, width=16, t_in=3, t_out=3, seed=4).inputs
        seen = []
        real = training.predict

        def recorded(model, x):
            seen.append(x)
            return real(model, x)
        monkeypatch.setattr(training, "predict", recorded)
        benchmark(model, iters=2, warmup=1, seed=4)
        # warm-up, timed calls and, for the random window, the traced one
        rest = [x for x in seen if not np.array_equal(x, want)]
        assert len(seen) == 7 and len(rest) == 4
        assert all(0.2 < x.mean() < 0.3 for x in rest)

    def test_traced_peak_matches_tracemalloc(self, monkeypatch):
        # the reported peak is that of one predict() on the timed input;
        # measured here around such a call it agrees within 10%. Both run
        # serial, with no split point using the helper: on two threads
        # the peak depends on how their allocations happen to overlap
        monkeypatch.setattr(parallel, "_splits", lambda: False)
        cfg = tiny_model_cfg(height=32, width=32)
        model = init_params(cfg, seed=0)
        x = (np.random.default_rng(0).random((1, cfg.t_in, 2, 32, 32))
             < 0.25)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            predict(model, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        got = benchmark(model, iters=2, warmup=1)["traced_peak_bytes"]
        assert abs(got - peak) <= 0.1 * peak, (got, peak)
        assert not tracemalloc.is_tracing()

    def test_leaves_a_running_trace_running(self):
        model = init_params(tiny_model_cfg(), seed=0)
        tracemalloc.start()
        try:
            got = benchmark(model, iters=2, warmup=1)["traced_peak_bytes"]
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert got > 0

    def test_memory_estimate_monotone_in_size(self):
        small = estimate_activation_bytes(tiny_model_cfg())
        large = estimate_activation_bytes(tiny_model_cfg(height=32, width=32))
        assert large > small

    def test_memory_estimate_leaves_a_running_trace_running(self):
        tracemalloc.start()
        try:
            got = estimate_activation_bytes(tiny_model_cfg())
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        assert got > 0

    def test_memory_estimate_ignores_input_density(self):
        # the estimate measures one fixed input; empty, sparse and full
        # inputs keep the same bytes alive to within 0.1%
        cfg = tiny_model_cfg(height=32, width=32, droppath_rate=0.2)
        model = init_params(cfg, seed=0)

        def live(density):
            x = (np.random.default_rng(0).random((2, 3, 2, 32, 32))
                 < density)

            def forward():
                with Tape() as tape:
                    logits = model.forward(
                        Tensor(x.astype(np.float32)), training=True,
                        rng=np.random.default_rng(1))
                return tape, logits
            return training._traced_bytes(forward)[0]

        live(0.25)  # first-call allocations stay out of the comparison
        figures = [live(density) for density in (0.0, 0.25, 1.0)]
        assert max(figures) - min(figures) < 1e-3 * min(figures), figures

    def test_memory_estimate_matches_recording_forward(self):
        # the estimate measures what a recording forward keeps alive; at
        # 32^2 it lands within 1% of tracemalloc's live bytes after one
        cfg = ModelConfig(t_in=4, t_out=4, height=32, width=32, c_step=4,
                          n_blocks=2, enc_widths=(8,), dec_widths=(16, 8))
        model = init_params(cfg, seed=0)
        x = (np.random.default_rng(0).random((2, 4, 2, 32, 32)) < 0.2)
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape():
                logits = model.forward(Tensor(x.astype(np.float32)),
                                       training=True, rng=rng)
                live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert logits.shape == (2, 4, 2, 32, 32)
        est = estimate_activation_bytes(cfg, batch=2)
        assert abs(est - live) <= 0.01 * live, (est, live)

    def test_median_stable(self):
        model = init_params(tiny_model_cfg(), seed=0)
        a = benchmark(model, iters=10, warmup=2)["median_ms"]
        b = benchmark(model, iters=10, warmup=2)["median_ms"]
        assert max(a, b) / min(a, b) < 3.0
