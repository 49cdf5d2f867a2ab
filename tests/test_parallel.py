"""The two-core forecast: predict's split points against the serial forward,
and the two_cores() scope that pins OpenBLAS.

predict() hands half of each split point to one helper thread at every
batch. Its output must be byte-identical to model.forward + ops.sigmoid at
one and at two OpenBLAS threads; every forward outside predict, and any
under a tape on its thread, must stay serial.
"""

import contextlib
import os
import re
import sys
import threading
import types

import numpy as np
import pytest

import etide
from etide import training
from etide.model import ModelConfig, init_params
from etide.numerics import Tape, Tensor, ops, parallel
from etide.training import make_moving_bar_dataset, predict, rollout_eval

from conftest import blas_thread_counts, one_blas_thread

CONFIGS = {
    "full": dict(),
    "learning-check": dict(c_step=4, n_blocks=2, enc_widths=(16,),
                           dec_widths=(48, 24), droppath_rate=0.0),
    # the CLI tests' THREADED_MODEL
    "64x64": dict(height=64, width=64, c_step=4, enc_widths=(16,),
                  dec_widths=(32, 16)),
    # 5x5 blocks: no row split whole in GEMM column groups, so they run
    # inline; one frame against two in the encoder
    "odd": dict(t_in=3, t_out=3, height=20, width=20, c_step=2, n_blocks=1,
                enc_widths=(4,), dec_widths=(8, 4)),
}


@pytest.fixture
def submitted(monkeypatch):
    """The names of the functions handed to the helper thread, in order."""
    calls = []
    executor = parallel._helper

    class Recording:
        def submit(self, fn):
            calls.append(fn.func.__name__)
            return executor.submit(fn)
    monkeypatch.setattr(parallel, "_helper", Recording())
    return calls


def inputs(cfg, seed=3):
    x, _ = make_moving_bar_dataset(1, height=cfg.height, width=cfg.width,
                                   t_in=cfg.t_in, t_out=cfg.t_out,
                                   seed=seed)[0]
    noise = np.random.default_rng(seed).random(x.shape) < 0.25
    return {"moving-bar": x, "random": noise.astype(np.uint8)}


def serial(model, x):
    logits = model.forward(Tensor(x[None].astype(model.dtype)))
    return ops.sigmoid(logits).data


@pytest.mark.parametrize("name", CONFIGS)
def test_predict_bytes_match_the_serial_forward(name, submitted):
    cfg = ModelConfig(**CONFIGS[name])
    model = init_params(cfg, seed=3)
    for kind, x in inputs(cfg).items():
        got = predict(model, x)
        assert submitted, "predict split nothing"
        submitted.clear()
        want_blas = serial(model, x)  # OpenBLAS at its own count
        with one_blas_thread():
            want_one = serial(model, x)
        assert not submitted
        assert got.tobytes() == want_blas.tobytes(), (name, kind)
        assert got.tobytes() == want_one.tobytes(), (name, kind)


def test_every_split_point_of_the_full_forecast(submitted):
    # nested split points (the encoder's stages inside a frame half) run
    # inline, so each section hands one half to the helper
    cfg = ModelConfig()
    predict(init_params(cfg, seed=0), inputs(cfg)["moving-bar"])
    assert submitted == (["_encode_frames"] + ["_ffn_tail"] * cfg.n_blocks
                         + ["parity", "_bias_ln_gelu"] * cfg.stages
                         + ["_head", "sigmoid"])


def test_helper_error_raises_here(monkeypatch):
    cfg = ModelConfig(**CONFIGS["64x64"])
    model = init_params(cfg, seed=0)
    x = inputs(cfg)["moving-bar"]
    want = predict(model, x)  # the helper exists from here on
    counts, threads = blas_thread_counts(), threading.active_count()
    cdf = ops._gelu_cdf

    def failing(*args, **kwargs):
        if threading.current_thread().name.startswith(parallel.HELPER_NAME):
            raise RuntimeError("helper failed")
        return cdf(*args, **kwargs)
    monkeypatch.setattr(ops, "_gelu_cdf", failing)
    with pytest.raises(RuntimeError, match="helper failed"):
        predict(model, x)
    assert blas_thread_counts() == counts
    assert threading.active_count() == threads
    monkeypatch.undo()
    assert predict(model, x).tobytes() == want.tobytes()


def test_predicts_on_many_threads():
    # more callers than cores, switching often: one splits at a time, the
    # others run inline, and every forecast keeps its bytes
    cfg = ModelConfig(**CONFIGS["odd"])
    model = init_params(cfg, seed=0)
    x = inputs(cfg)["moving-bar"]
    want = serial(model, x).tobytes()
    got = []

    def work():
        for _ in range(5):
            got.append(predict(model, x).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 20


def test_rollout_eval_splits_its_first_forecast_then_scores(submitted):
    # the helper takes the first forecast's split points, then scores
    # each sequence but the last while the next forecast runs inline
    cfg = ModelConfig(**CONFIGS["64x64"])
    model = init_params(cfg, seed=0)
    dataset = make_moving_bar_dataset(3, height=64, width=64, seed=0)
    predict(model, dataset[0][0])
    one_forecast = list(submitted)
    assert one_forecast
    submitted.clear()
    rollout_eval(model, dataset, taus=(0.5,))
    assert submitted == one_forecast + ["score_sequence"] * 2


def test_rollout_eval_of_no_sequence(submitted):
    cfg = ModelConfig(**CONFIGS["64x64"])
    dataset = make_moving_bar_dataset(2, height=64, width=64, seed=0)
    report = rollout_eval(init_params(cfg, seed=0), dataset, indices=[],
                          taus=(0.5,))
    empty = {"iou_on": 1.0, "iou_off": 1.0, "miou": 1.0, "aiou": 1.0,
             "mse": 0.0, "ssim": 1.0}
    assert report == {"model": empty, "persistence": empty,
                      "grid": [(0.5, empty)]}
    assert submitted == []


@pytest.mark.parametrize("name", ["64x64", "full"])
def test_batch_changes_only_the_last_bits(name):
    # ops.linear runs gemv on one row and gemm on several, which round
    # differently: a window inside a batch is not its batch-1 forecast
    cfg = ModelConfig(**CONFIGS[name])
    model = init_params(cfg, seed=3)
    pair = make_moving_bar_dataset(2, height=cfg.height, width=cfg.width,
                                   t_in=cfg.t_in, t_out=cfg.t_out,
                                   seed=3).inputs
    alone = np.concatenate([predict(model, x) for x in pair])
    np.testing.assert_allclose(predict(model, pair), alone, rtol=0,
                               atol=1e-5)


def test_batches_split_like_batch_one(submitted):
    cfg = ModelConfig(**CONFIGS["64x64"])
    model = init_params(cfg, seed=0)
    x = inputs(cfg)["moving-bar"]
    predict(model, x)
    one_window = list(submitted)
    submitted.clear()
    pair = np.stack([x, 1 - x])
    got = predict(model, pair)
    assert submitted == one_window
    submitted.clear()
    want_blas = ops.sigmoid(model.forward(Tensor(pair.astype(np.float32))))
    with one_blas_thread():
        want_one = ops.sigmoid(model.forward(
            Tensor(pair.astype(np.float32))))
    assert not submitted
    assert got.tobytes() == want_blas.data.tobytes()
    assert got.tobytes() == want_one.data.tobytes()


def test_tapes_stay_serial(submitted):
    cfg = ModelConfig(**CONFIGS["64x64"])
    model = init_params(cfg, seed=0)
    x = inputs(cfg)["moving-bar"]
    with Tape():
        taped = predict(model, x)
        rollout_eval(model, make_moving_bar_dataset(2, height=64, width=64,
                                                    seed=0))
    assert submitted == []
    assert taped.tobytes() == serial(model, x).tobytes()


def test_a_tape_opened_inside_two_cores_records_the_whole_forward(submitted):
    # the rule holds at each split point, not only where the scope opens:
    # a split's halves and its join would not be on the tape
    cfg = ModelConfig(**CONFIGS["64x64"])
    x = Tensor(inputs(cfg)["moving-bar"][None].astype(np.float32))

    def gradients(scope):
        model = init_params(cfg, seed=0)
        with scope():
            with Tape() as tape:
                out = model.forward(x)
                loss = ops.weighted_sum(out, np.ones(out.shape, np.float32))
            grads = tape.backward(loss)
        return [grads[p].tobytes() for p in model.parameters()]
    assert gradients(parallel.two_cores) == gradients(contextlib.nullcontext)
    assert submitted == []


def test_another_threads_tape_neither_records_nor_blocks_a_split(submitted):
    # a tape records the ops of the thread that entered it: a predict on
    # another thread adds no node to it and still runs on two cores
    cfg = ModelConfig(**CONFIGS["64x64"])
    x = inputs(cfg)["moving-bar"]
    other = init_params(cfg, seed=1)
    want = serial(other, x)
    got = []
    with Tape() as tape:
        init_params(cfg, seed=0).forward(Tensor(x[None].astype(np.float32)))
        nodes = len(tape)
        thread = threading.Thread(target=lambda: got.append(predict(other,
                                                                    x)))
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        assert len(tape) == nodes
    assert nodes and submitted
    assert got[0].tobytes() == want.tobytes()


def test_split_points_inline_outside_predict(submitted):
    cfg = ModelConfig(**CONFIGS["64x64"])
    model = init_params(cfg, seed=0)
    x = inputs(cfg)["moving-bar"]
    training.benchmark(model, iters=1, warmup=0)
    assert submitted  # benchmark() times predict
    submitted.clear()
    model.forward(Tensor(x[None].astype(np.float32)))
    assert submitted == []


# The cut each split point took when its caller chose it, in call order:
# the encoder's frames (the half of B * t_in), each block's tail, each
# decoder stage's bias -> LN -> GELU rows, the head and the sigmoid.
CUTS = {
    "full": lambda b: [5 * b] + [16] * 4 + [32, 64, 64, 64],
    "learning-check": lambda b: [5 * b] + [16] * 2 + [32, 64, 64, 64],
    "64x64": lambda b: [5 * b] + [8] * 4 + [16, 32, 32, 32],
}


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", CUTS)
def test_split_points_keep_their_cuts(name, batch, monkeypatch):
    cfg = ModelConfig(**CONFIGS[name])
    cuts, cut = [], parallel._cut

    def recording(shape, axis):
        cuts.append(cut(shape, axis))
        return cuts[-1]
    monkeypatch.setattr(parallel, "_cut", recording)
    x = make_moving_bar_dataset(batch, height=cfg.height, width=cfg.width,
                                t_in=cfg.t_in, t_out=cfg.t_out,
                                seed=3).inputs
    predict(init_params(cfg, seed=3), x)
    assert cuts == CUTS[name](batch)


@pytest.mark.parametrize("height,width,at", [
    (32, 32, 16), (128, 128, 64), (16, 16, 8), (8, 8, 4), (4, 4, 0),
    (5, 5, 0), (64, 2, 32), (6, 8, 2), (1, 64, 0)])
def test_cut_of_a_plane_by_rows(height, width, at):
    assert parallel._cut((2, 3, height, width), axis=2) == at
    assert at * width % parallel.GEMM_COLUMN_GROUP == 0


@pytest.mark.parametrize("shape,axis,at", [
    ((10, 2, 128, 128), 0, 5),   # the encoder's frames: the half
    ((3, 2, 20, 20), 0, 1),
    ((5, 2, 5, 5), 0, 0),        # 2 frames would be 100 columns
    ((1, 10, 2, 20, 20), 3, 8),  # sigmoid rows, 20 columns each
    ((1, 48, 136, 1), 2, 64),    # the sparse stem's column block
    ((1, 48, 16, 1), 2, 0),
    ((0, 4), 0, 0)])
def test_cut_along_any_axis(shape, axis, at):
    assert parallel._cut(shape, axis) == at
    assert at * int(np.prod(shape[axis + 1:])) % (
        parallel.GEMM_COLUMN_GROUP) == 0


def test_only_parallel_runs_threads_or_sets_blas_threads():
    root = os.path.dirname(etide.__file__)
    found = set()
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            if name.endswith(".py") and re.search(
                    r"ThreadPoolExecutor|threading\.Thread\(|set_num_threads",
                    open(path, encoding="utf-8").read()):
                found.add(os.path.relpath(path, root))
    assert found == {os.path.join("numerics", "parallel.py")}


class TestTwoCores:
    def fake_library(self, count):
        """A library exporting OpenBLAS's thread-count pair over a list."""
        def get():
            return count[0]

        def set_(n):
            count[0] = n
        return types.SimpleNamespace(openblas_get_num_threads64_=get,
                                     openblas_set_num_threads64_=set_)

    def use_fake(self, monkeypatch, count):
        lib = self.fake_library(count)
        monkeypatch.setattr(parallel, "_blas_controls",
                            lambda: [parallel._thread_count_functions(lib)])

    def test_pins_one_thread_and_restores_after_an_error(self, monkeypatch):
        count = [4]
        self.use_fake(monkeypatch, count)
        with pytest.raises(RuntimeError, match="inside"):
            with parallel.two_cores():
                assert count == [1]
                raise RuntimeError("inside")
        assert count == [4]

    def test_no_op_without_an_openblas_symbol(self, monkeypatch):
        # a library that exports neither entry point under any known name
        monkeypatch.setattr(parallel, "_openblas_libraries",
                            lambda: [types.SimpleNamespace()])
        parallel._blas_controls.cache_clear()
        try:
            ran = []
            with parallel.two_cores():
                ran.append(True)
            assert ran == [True]
        finally:
            monkeypatch.undo()
            parallel._blas_controls.cache_clear()

    def test_libraries_resolved_once(self, monkeypatch):
        calls = []

        def libraries():
            calls.append(1)
            return []
        monkeypatch.setattr(parallel, "_openblas_libraries", libraries)
        parallel._blas_controls.cache_clear()
        try:
            for _ in range(3):
                with parallel.two_cores():
                    pass
            assert calls == [1]
        finally:
            monkeypatch.undo()
            parallel._blas_controls.cache_clear()

    def test_nested_scopes_restore_once(self, monkeypatch):
        count = [4]
        self.use_fake(monkeypatch, count)
        me = threading.get_ident()
        with parallel.two_cores():
            with parallel.two_cores():
                assert count == [1] and parallel._owner == me
            assert count == [1] and parallel._owner == me
        assert count == [4] and parallel._owner is None

    def test_overlapping_scopes_on_two_threads(self, monkeypatch):
        # A enters, B enters, A exits, B exits: the count B saw on entry
        # was A's 1, A owned the helper until it exited, and the original
        # 4 must come back all the same
        count = [4]
        self.use_fake(monkeypatch, count)
        b_entered, a_exited = threading.Event(), threading.Event()
        seen = []

        def scope_b():
            with parallel.two_cores():
                seen.append(parallel._owner)
                b_entered.set()
                a_exited.wait(10)
                seen.extend([parallel._owner, count[0]])

        thread = threading.Thread(target=scope_b)
        with parallel.two_cores():
            thread.start()
            assert b_entered.wait(10)
        a_exited.set()
        thread.join(10)
        assert seen == [threading.get_ident(), None, 1] and count == [4]

    def test_scopes_on_many_threads(self, monkeypatch):
        # more threads than cores, switching often: every body sees one
        # thread, exactly one scope at a time owned it, and the count
        # comes back at the end
        count = [4]
        self.use_fake(monkeypatch, count)
        seen, owners, lock = set(), [0, 0], threading.Lock()

        def work():
            for _ in range(200):
                with parallel.two_cores():
                    seen.add(count[0])
                    mine = parallel._owner == threading.get_ident()
                    with lock:  # [scopes now owning, most seen at once]
                        owners[0] += mine
                        owners[1] = max(owners)
                    with lock:
                        owners[0] -= mine

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == {1} and count == [4] and owners == [0, 1]
        assert parallel._depth == 0

    def test_loaded_openblas_restored(self):
        def counts():  # looked up afresh, not through the cached controls
            return [get() for get, _ in filter(None, map(
                parallel._thread_count_functions,
                parallel._openblas_libraries()))]
        before = counts()
        if not before:
            pytest.skip("no OpenBLAS with a thread-count entry point loaded")
        with pytest.raises(RuntimeError):
            with parallel.two_cores():
                assert counts() == [1] * len(before)
                raise RuntimeError
        assert counts() == before
