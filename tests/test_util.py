"""Config codec tests: pinned bytes, round-trips, and rejected input."""

import pytest

from etide.losses import LossConfig
from etide.model import ModelConfig
from etide.training import TrainConfig
from etide.util import config_from_text, config_to_text

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
