"""Model structure, invariants, and checkpoint round-trip tests."""

import math

import numpy as np
import pytest

from etide.model import (CheckpointError, ModelConfig, TideModel,
                         count_params, init_params, load_checkpoint,
                         pack_time, save_checkpoint, unpack_time)
from etide.numerics import Tensor, ops
from etide.training import predict
from etide.util import config_from_text

from conftest import assert_mutations_rejected


def tiny_config(**overrides):
    base = dict(t_in=3, t_out=3, height=8, width=8, c_step=2, n_blocks=1,
                enc_widths=(4,), dec_widths=(8, 4), droppath_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def expected_param_count(cfg):
    """Closed-form parameter count, written independently of init_params."""
    k = cfg.k_resample
    total = 0
    chain = [2, *cfg.enc_widths, cfg.c_step]
    for cin, cout in zip(chain, chain[1:]):
        total += cout * cin * k * k + cout + 2 * cout
    d = cfg.t_in * cfg.c_step
    hid = max(1, math.ceil(d / cfg.gate_reduction))
    e = cfg.ffn_expansion
    per_block = (2 * d                                   # ln1
                 + d * cfg.k_mix1 ** 2                   # dw1 (no bias)
                 + d * cfg.k_mix2 ** 2                   # dw2 (no bias)
                 + d * d + d                             # pointwise mix
                 + hid * d + hid + d * hid + d           # gate MLP
                 + 2 * d                                 # ln2
                 + e * d * d + e * d + e * d * d + d)    # ffn
    total += cfg.n_blocks * per_block
    dchain = [d, *cfg.dec_widths]
    for cin, cout in zip(dchain, dchain[1:]):
        total += cout * cin * k * k + cout + 2 * cout
    total += cfg.t_out * 2 * cfg.dec_widths[-1] + cfg.t_out * 2
    return total


class FullDropRng:
    """Stub generator whose draws always exceed any keep probability."""

    def random(self, n):
        return np.ones(n)


def binary_input(cfg, batch=1, seed=0, density=0.15):
    rng = np.random.default_rng(seed)
    x = rng.random((batch, cfg.t_in, 2, cfg.height, cfg.width)) < density
    return x.astype(np.float32)


class TestConfig:
    @pytest.mark.parametrize("height,width,field", [
        (130, 128, "height"), (128, 66, "width"), (-4, -4, "height"),
        (0, 128, "height"), (128, 0, "width"),
    ])
    def test_divisibility_enforced(self, height, width, field):
        with pytest.raises(ValueError, match=f"{field} must be positive "
                                             "and divisible"):
            ModelConfig(height=height, width=width)

    def test_width_lists_must_match_stages(self):
        with pytest.raises(ValueError, match="enc_widths"):
            tiny_config(enc_widths=(4, 4))
        with pytest.raises(ValueError, match="dec_widths"):
            tiny_config(dec_widths=(8,))

    def test_text_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_text(ModelConfig, "t_in=3\nbogus=1\n")

    def test_full_config_derived_sizes(self):
        cfg = ModelConfig()
        assert cfg.packed_channels == 80
        assert cfg.gate_hidden == 5
        assert cfg.grid == (32, 32)


class TestEncodePack:
    def test_encoder_output_spatial(self):
        cfg = ModelConfig()
        model = init_params(cfg, seed=0)
        e = model.encode(Tensor(binary_input(cfg)))
        assert e.shape == (10, cfg.c_step, 32, 32)

    def test_weight_sharing_batch_permutation(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=1)
        x = binary_input(cfg, batch=3, seed=2)
        e = model.encode(Tensor(x)).data.reshape(3, cfg.t_in, cfg.c_step, 2, 2)
        perm = [2, 0, 1]
        e_perm = model.encode(Tensor(x[perm])).data.reshape(
            3, cfg.t_in, cfg.c_step, 2, 2)
        assert np.allclose(e_perm, e[perm])

    def test_zero_input_zero_features(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=0)
        x = np.zeros((1, cfg.t_in, 2, cfg.height, cfg.width), dtype=np.float32)
        assert np.allclose(model.encode(Tensor(x)).data, 0.0, atol=1e-6)

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        e = Tensor(rng.normal(size=(6, 4, 5, 5)))
        z = pack_time(e, t_in=3)
        assert z.shape == (2, 12, 5, 5)
        assert np.array_equal(unpack_time(z, t_in=3).data, e.data)

    def test_packed_channel_blocks_are_per_step(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=3)
        x = binary_input(cfg, seed=4)
        base = pack_time(model.encode(Tensor(x)), cfg.t_in).data
        step = 1
        x2 = x.copy()
        x2[0, step] = 1.0 - x2[0, step]
        pert = pack_time(model.encode(Tensor(x2)), cfg.t_in).data
        changed = np.abs(pert - base).sum(axis=(0, 2, 3)) > 0
        lo, hi = step * cfg.c_step, (step + 1) * cfg.c_step
        assert changed[lo:hi].all()
        assert not changed[:lo].any() and not changed[hi:].any()

    def test_samples_stay_separated(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=5)
        x = binary_input(cfg, batch=2, seed=6)
        base = model.forward(Tensor(x)).data
        x2 = x.copy()
        x2[0] = 0.0
        pert = model.forward(Tensor(x2)).data
        assert np.allclose(pert[1], base[1])


class TestTideCoreBlock:
    def test_core_zero_annihilation(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=0)  # biases start at zero
        z = Tensor(np.zeros((2, cfg.packed_channels, 2, 2), dtype=np.float32))
        assert np.allclose(model.tide_core(z, 0).data, 0.0)

    def test_gate_strictly_inside_unit_interval(self):
        cfg = tiny_config(n_blocks=2)
        model = init_params(cfg, seed=1)
        un = Tensor(np.random.default_rng(0).normal(
            size=(3, cfg.packed_channels, 2, 2)).astype(np.float32))
        # recompute the gate exactly as the core does
        mask = np.ones((3, 1, 2, 2), dtype=np.float32)
        pooled = ops.masked_mean_pool(un, mask)
        h = ops.relu(ops.linear(pooled, model["blk0.gate1.w"],
                                model["blk0.gate1.b"]))
        g = ops.sigmoid(ops.linear(h, model["blk0.gate2.w"],
                                   model["blk0.gate2.b"])).data
        assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_mask_count_bounds_32x32(self):
        cfg = ModelConfig()
        n = 32 * 32
        rng = np.random.default_rng(9)
        activity = rng.random(n)  # distinct with probability 1
        delta = ops.quantile_nearest_rank(activity, cfg.mask_quantile)
        count = int((activity >= delta).sum())
        lower = math.floor((1 - cfg.mask_quantile) * n)
        assert lower <= count <= n and count >= 1
        assert count in (lower, lower + 1)

    def test_block_identity_with_zero_convs(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=2)
        for name, p in model.params.items():
            if name.startswith("blk0") and not name.endswith("ln1.g") \
                    and not name.endswith("ln2.g"):
                p.data = np.zeros_like(p.data)
        u = Tensor(np.random.default_rng(1).normal(
            size=(2, cfg.packed_channels, 2, 2)).astype(np.float32))
        out = model.tide_block(u, 0, training=False)
        assert np.allclose(out.data, u.data, atol=1e-6)

    def test_block_identity_when_both_branches_drop(self):
        cfg = tiny_config(droppath_rate=0.5)
        model = init_params(cfg, seed=3)
        u = Tensor(np.random.default_rng(2).normal(
            size=(2, cfg.packed_channels, 2, 2)).astype(np.float32))
        out = model.tide_block(u, 0, training=True, rng=FullDropRng())
        assert np.allclose(out.data, u.data)

    def test_eval_deterministic(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=4)
        x = binary_input(cfg, seed=5)
        a = model.forward(Tensor(x)).data
        b = model.forward(Tensor(x)).data
        assert np.array_equal(a, b)

    def test_global_pool_fallback_runs(self):
        cfg = tiny_config(use_activity_mask=False)
        model = init_params(cfg, seed=0)
        out = model.forward(Tensor(binary_input(cfg)))
        assert out.shape == (1, 3, 2, 8, 8)

    def test_plain_gate_fallback_runs(self):
        cfg = tiny_config(use_multiplicative_residual=False)
        model = init_params(cfg, seed=0)
        out = model.forward(Tensor(binary_input(cfg)))
        assert out.shape == (1, 3, 2, 8, 8)


class TestDecodeForward:
    def test_zero_input_gives_half_probabilities(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=0)
        x = np.zeros((1, cfg.t_in, 2, cfg.height, cfg.width), dtype=np.float32)
        probs = predict(model, x)
        assert np.allclose(probs, 0.5, atol=1e-6)

    def test_forward_shape_small(self):
        cfg = tiny_config(t_out=4, dec_widths=(8, 6))
        model = init_params(cfg, seed=1)
        out = model.forward(Tensor(binary_input(cfg, batch=2)))
        assert out.shape == (2, 4, 2, 8, 8)

    def test_forward_rejects_wrong_shape(self):
        cfg = tiny_config()
        model = init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="input shape"):
            model.forward(Tensor(np.zeros((1, 2, 2, 8, 8), dtype=np.float32)))

    def test_droppath_varies_with_rng(self):
        cfg = tiny_config(droppath_rate=0.5)
        model = init_params(cfg, seed=2)
        x = binary_input(cfg, batch=4, seed=3)
        a = model.forward(Tensor(x), training=True,
                          rng=np.random.default_rng(0)).data
        b = model.forward(Tensor(x), training=True,
                          rng=np.random.default_rng(99)).data
        assert not np.allclose(a, b)


class TestInitAndCount:
    def test_same_seed_identical(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=7)
        b = init_params(cfg, seed=7)
        for name in a.params:
            assert np.array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=7)
        b = init_params(cfg, seed=8)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.params)

    @pytest.mark.parametrize("cfg", [
        tiny_config(), ModelConfig(),
        tiny_config(c_step=4, n_blocks=3, gate_reduction=3)])
    def test_count_matches_closed_form(self, cfg):
        assert count_params(init_params(cfg, 0)) == expected_param_count(cfg)

    def test_full_config_count_in_range(self):
        n = count_params(init_params(ModelConfig(), 0))
        assert 300_000 <= n <= 600_000

    def test_doubling_cstep_quadruples_block_params(self):
        def block_only(c_step):
            cfg = ModelConfig(c_step=c_step)
            model = init_params(cfg, 0)
            return sum(p.size for n, p in model.params.items()
                       if n.startswith("blk0."))
        ratio = block_only(16) / block_only(8)
        assert 3.3 < ratio < 4.2

    def test_layer_norms_start_at_identity(self):
        model = init_params(tiny_config(), 0)
        assert np.all(model["blk0.ln1.g"].data == 1.0)
        assert np.all(model["blk0.ln1.b"].data == 0.0)


class TestCheckpoint:
    def test_roundtrip_identical(self, tmp_path):
        cfg = tiny_config(droppath_rate=0.1)
        model = init_params(cfg, seed=11)
        path = tmp_path / "m.etw"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        for name in model.params:
            assert np.array_equal(loaded[name].data, model[name].data)

    def test_save_load_save_bit_identical(self, tmp_path):
        model = init_params(tiny_config(), seed=3)
        p1, p2 = tmp_path / "a.etw", tmp_path / "b.etw"
        save_checkpoint(p1, model)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.etw"
        path.write_bytes(b"WHAT" + b"\x00" * 20)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        model = init_params(tiny_config(), seed=0)
        path = tmp_path / "t.etw"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_mutations_load_or_raise_checkpoint_error(self, tmp_path):
        model = init_params(tiny_config(), seed=0)
        save_checkpoint(tmp_path / "a.etw", model)
        first = model.parameters()[0]
        # the file header and the first parameter's name, rank and dims
        header = 12 + 2 + len(first.name) + 1 + 4 * first.data.ndim
        assert_mutations_rejected(tmp_path / "m.etw",
                                  (tmp_path / "a.etw").read_bytes(), header,
                                  load_checkpoint, CheckpointError, seed=3)

    def test_trailing_garbage(self, tmp_path):
        model = init_params(tiny_config(), seed=0)
        path = tmp_path / "g.etw"
        save_checkpoint(path, model)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)
