"""Config codec tests: pinned bytes, round-trips, and rejected input;
and the one-thread BLAS scope."""

import sys
import threading
import types

import pytest

from etide import util
from etide.losses import LossConfig
from etide.model import ModelConfig
from etide.training import TrainConfig
from etide.util import config_from_text, config_to_text, single_blas_thread

# The ETW1 checkpoint config block of the default model. Checkpoints written
# by earlier versions carry these bytes, and checkpoint hashes depend on them.
MODEL_TEXT = """\
t_in=10
t_out=10
height=128
width=128
c_step=8
n_blocks=4
k_resample=3
k_mix1=5
k_mix2=7
mix_dilation=3
mask_quantile=0.98
gate_reduction=16
ffn_expansion=2
droppath_rate=0.2
stages=2
enc_widths=32
dec_widths=160,48
use_activity_mask=true
use_multiplicative_residual=true
"""

TRAIN_TEXT = """\
epochs=4
batch_size=4
lr=0.001
beta1=0.9
beta2=0.999
eps=1e-08
seed=0
checkpoint_interval=1
val_split=0.1
grad_clip=0.0
loss.alpha=0.75
loss.gamma=2.0
loss.lambda_on=0.65
loss.lambda_off=0.35
loss.alpha_ddr=0.1
loss.tau=1.0
loss.eps=1e-08
""" + "".join(f"model.{line}\n" for line in MODEL_TEXT.splitlines())

ONE_STAGE = ModelConfig(height=16, width=16, stages=1, enc_widths=(),
                        dec_widths=(8,), droppath_rate=0.1,
                        use_activity_mask=False)
CUSTOM_LOSS = LossConfig(alpha=0.6, gamma=0.0, alpha_ddr=0.0)


class TestConfigCodec:
    def test_golden_bytes(self):
        assert config_to_text(ModelConfig()) == MODEL_TEXT
        assert config_to_text(TrainConfig()) == TRAIN_TEXT

    @pytest.mark.parametrize("cfg", [
        ModelConfig(), ONE_STAGE, LossConfig(), CUSTOM_LOSS, TrainConfig(),
        TrainConfig(epochs=7, lr=5e-4, grad_clip=2.0, loss=CUSTOM_LOSS,
                    model=ONE_STAGE),
    ], ids=["model", "model-one-stage", "loss", "loss-custom", "train",
            "train-custom"])
    def test_roundtrip(self, cfg):
        assert config_from_text(type(cfg), config_to_text(cfg)) == cfg

    def test_comments_blanks_and_bool_spellings(self):
        text = "# a comment\n\n  stages = 1 \nenc_widths=\ndec_widths=8\n" \
               "height=16\nwidth=16\nuse_activity_mask=No\n" \
               "use_multiplicative_residual=YES\n"
        assert config_from_text(ModelConfig, text) == ModelConfig(
            height=16, width=16, stages=1, enc_widths=(), dec_widths=(8,),
            use_activity_mask=False)

    def test_omitted_keys_keep_defaults(self):
        cfg = config_from_text(TrainConfig, "model.n_blocks=2\nloss.tau=0.5\n")
        assert cfg == TrainConfig(model=ModelConfig(n_blocks=2),
                                  loss=LossConfig(tau=0.5))

    @pytest.mark.parametrize("text,line", [
        ("epochs=1\nepochs=5\n", 2),
        ("model.t_in=3\n# note\nmodel.t_in=4\n", 3),
    ])
    def test_duplicate_key_names_line(self, text, line):
        with pytest.raises(ValueError, match=f"line {line}: duplicate key"):
            config_from_text(TrainConfig, text)

    @pytest.mark.parametrize("text,match", [
        ("epochs\n", "line 1: expected key=value"),
        ("seed=0\nmodel.bogus=1\n", "line 2: unknown model key 'bogus'"),
        ("loss=1\n", "line 1: unknown key 'loss'"),
        ("epochs.x=1\n", "line 1: unknown key 'epochs.x'"),
        ("epochs=two\n", "line 1: epochs: invalid literal"),
        ("model.use_activity_mask=maybe\n",
         "line 1: model.use_activity_mask: bad boolean"),
    ])
    def test_rejected_lines(self, text, match):
        with pytest.raises(ValueError, match=match):
            config_from_text(TrainConfig, text)


def blas_thread_counts():
    return [get() for get, _ in filter(None, map(
        util._thread_count_functions, util._openblas_libraries()))]


class TestSingleBlasThread:
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
        monkeypatch.setattr(util, "_blas_controls",
                            lambda: [util._thread_count_functions(lib)])

    def test_pins_one_thread_and_restores_after_an_error(self, monkeypatch):
        count = [4]
        self.use_fake(monkeypatch, count)
        with pytest.raises(RuntimeError, match="inside"):
            with single_blas_thread():
                assert count == [1]
                raise RuntimeError("inside")
        assert count == [4]

    def test_no_op_without_an_openblas_symbol(self, monkeypatch):
        # a library that exports neither entry point under any known name
        monkeypatch.setattr(util, "_openblas_libraries",
                            lambda: [types.SimpleNamespace()])
        util._blas_controls.cache_clear()
        try:
            ran = []
            with single_blas_thread():
                ran.append(True)
            assert ran == [True]
        finally:
            monkeypatch.undo()
            util._blas_controls.cache_clear()

    def test_libraries_resolved_once(self, monkeypatch):
        calls = []

        def libraries():
            calls.append(1)
            return []
        monkeypatch.setattr(util, "_openblas_libraries", libraries)
        util._blas_controls.cache_clear()
        try:
            for _ in range(3):
                with single_blas_thread():
                    pass
            assert calls == [1]
        finally:
            monkeypatch.undo()
            util._blas_controls.cache_clear()

    def test_nested_scopes_restore_once(self, monkeypatch):
        count = [4]
        self.use_fake(monkeypatch, count)
        with single_blas_thread() as outer:
            with single_blas_thread() as inner:
                assert count == [1]
            assert count == [1]
        assert (outer, inner, count) == (True, False, [4])

    def test_overlapping_scopes_on_two_threads(self, monkeypatch):
        # A enters, B enters, A exits, B exits: the count B saw on entry
        # was A's 1, and the original 4 must come back all the same
        count = [4]
        self.use_fake(monkeypatch, count)
        b_entered, a_exited = threading.Event(), threading.Event()
        seen = []

        def scope_b():
            with single_blas_thread() as first:
                seen.append(first)
                b_entered.set()
                a_exited.wait(10)
                seen.append(count[0])

        thread = threading.Thread(target=scope_b)
        with single_blas_thread():
            thread.start()
            assert b_entered.wait(10)
        a_exited.set()
        thread.join(10)
        assert seen == [False, 1] and count == [4]

    def test_scopes_on_many_threads(self, monkeypatch):
        # more threads than cores, switching often: every body sees one
        # thread, exactly one scope at a time pinned it, and the count
        # comes back at the end
        count = [4]
        self.use_fake(monkeypatch, count)
        seen, pinned, lock = set(), [0, 0], threading.Lock()

        def work():
            for _ in range(200):
                with single_blas_thread() as first:
                    seen.add(count[0])
                    with lock:  # [scopes now holding the pin, most seen]
                        pinned[0] += first
                        pinned[1] = max(pinned)
                    with lock:
                        pinned[0] -= first

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
        assert seen == {1} and count == [4] and pinned == [0, 1]
        assert util._blas_depth == 0

    def test_loaded_openblas_restored(self):
        before = blas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS with a thread-count entry point loaded")
        with pytest.raises(RuntimeError):
            with single_blas_thread():
                assert blas_thread_counts() == [1] * len(before)
                raise RuntimeError
        assert blas_thread_counts() == before
