"""Loss tests; expected values come from scalar hand math and nested-loop
numpy oracles written here, independent of the library internals."""

import math
import tracemalloc

import numpy as np
import pytest

from etide.losses import (LossConfig, ddr_loss, focal_elem, polarity_focal,
                          total_loss)
from etide.model import ModelConfig, init_params
from etide.numerics import Tape, Tensor, grad_check, ops
from etide.numerics.tensor import Parameter


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def focal_scalar_oracle(p, y, alpha, gamma, eps=1e-8):
    return (-alpha * y * (1 - p) ** gamma * math.log(p + eps)
            - (1 - alpha) * (1 - y) * p ** gamma * math.log(1 - p + eps))


def polarity_focal_oracle(logits, targets, cfg):
    p = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
    b, t, c, h, w = logits.shape
    total = 0.0
    for bi in range(b):
        s = 0.0
        for ti in range(t):
            for ci in range(c):
                lam = cfg.lambda_on if ci == 0 else cfg.lambda_off
                for i in range(h):
                    for j in range(w):
                        s += lam * focal_scalar_oracle(
                            p[bi, ti, ci, i, j],
                            int(targets[bi, ti, ci, i, j]),
                            cfg.alpha, cfg.gamma, cfg.eps)
        total += s / (t * h * w)
    return total / b


def ddr_oracle(probs, targets, tau, eps=1e-8):
    p64 = probs.astype(np.float64)
    t64 = targets.astype(np.float64)
    b, t, _, _, _ = p64.shape

    def softmax(v):
        z = v / tau
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    total = 0.0
    for bi in range(b):
        acc = 0.0
        for ti in range(t - 1):
            pp = softmax((p64[bi, ti + 1] - p64[bi, ti]).reshape(-1))
            qq = softmax((t64[bi, ti + 1] - t64[bi, ti]).reshape(-1))
            acc += float(np.sum(pp * (np.log(pp + eps) - np.log(qq + eps))))
        total += acc / (t - 1)
    return total / b


def random_instance(seed, shape=(2, 3, 2, 4, 4), scale=2.0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=scale, size=shape).astype(np.float32)
    targets = (rng.random(shape) < 0.3).astype(np.float32)
    return logits, targets


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert (cfg.alpha, cfg.gamma) == (0.75, 2.0)
        assert cfg.lambda_on + cfg.lambda_off == pytest.approx(1.0)
        assert cfg.lambda_on == pytest.approx(0.65)
        assert cfg.alpha_ddr == 0.1 and cfg.tau == 1.0

    def test_lambda_normalization(self):
        cfg = LossConfig(lambda_on=1.3, lambda_off=0.7)
        assert cfg.lambda_on == pytest.approx(0.65)
        assert cfg.lambda_off == pytest.approx(0.35)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(lambda_on=-0.1)


# ---------------------------------------------------------------------------
# focal term
# ---------------------------------------------------------------------------

class TestFocalElem:
    def test_perfect_positive_goes_to_zero(self):
        assert focal_elem(1.0 - 1e-9, 1, 0.75, 2.0) < 1e-17

    def test_hand_values(self):
        assert focal_elem(0.5, 1, 0.75, 2.0) == pytest.approx(0.12997, abs=1e-4)
        assert focal_elem(0.5, 0, 0.75, 2.0) == pytest.approx(0.04332, abs=1e-4)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            focal_elem(0.5, 2, 0.75, 2.0)


class TestPolarityFocal:
    def test_zero_logits_zero_targets_closed_form(self):
        cfg = LossConfig()
        logits = Tensor(np.zeros((1, 2, 2, 4, 4), dtype=np.float32))
        targets = np.zeros((1, 2, 2, 4, 4), dtype=np.float32)
        expected = 0.25 * 0.25 * math.log(2.0)
        assert polarity_focal(logits, targets, cfg).item() == pytest.approx(
            expected, abs=1e-5)

    def test_saturated_correct_logits_near_zero(self):
        cfg = LossConfig()
        rng = np.random.default_rng(0)
        targets = (rng.random((1, 2, 2, 4, 4)) < 0.4).astype(np.float32)
        logits = Tensor((targets * 2.0 - 1.0) * 50.0)
        assert total_loss(logits, targets, cfg).item() < 1e-6

    def test_lambda_swap_equals_channel_swap(self):
        logits, targets = random_instance(1)
        a = polarity_focal(Tensor(logits), targets,
                           LossConfig(lambda_on=0.65, lambda_off=0.35)).item()
        b = polarity_focal(Tensor(logits[:, :, ::-1].copy()),
                           targets[:, :, ::-1].copy(),
                           LossConfig(lambda_on=0.35, lambda_off=0.65)).item()
        assert a == pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_nested_loop_oracle(self, seed):
        cfg = LossConfig()
        logits, targets = random_instance(seed)
        got = polarity_focal(Tensor(logits), targets, cfg).item()
        assert got == pytest.approx(polarity_focal_oracle(logits, targets, cfg),
                                    rel=1e-5)

    def test_rejects_nonbinary_targets(self):
        logits, targets = random_instance(0)
        targets[0, 0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="binary"):
            polarity_focal(Tensor(logits), targets, LossConfig())

    def test_uint8_targets_match_float32(self):
        # train() hands total_loss its uint8 target batch uncast
        logits, targets = random_instance(3)
        results = []
        for y in (targets, targets.astype(np.uint8)):
            param = Parameter(logits, "s")
            with Tape() as tape:
                loss = total_loss(param, y, LossConfig())
                grads = tape.backward(loss)
            results.append((loss.data.tobytes(), grads[param].tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("bad,dtype", [
        (0.5, np.float32), (2.0, np.float32), (np.nan, np.float32),
        (2, np.uint8),
    ])
    def test_focal_map_rejects_nonbinary_values(self, bad, dtype):
        logits, targets = random_instance(0)
        targets = targets.astype(dtype)
        targets[1, 2, 1, 3, 3] = bad
        with pytest.raises(ValueError, match="binary"):
            ops.focal_loss_map(Tensor(logits), targets, 0.75, 2.0)

    def test_gradient_signs(self):
        cfg = LossConfig()
        logits, targets = random_instance(2, shape=(1, 2, 2, 3, 3))
        param = Parameter(logits.astype(np.float64), "s", dtype=np.float64)
        with Tape() as tape:
            loss = polarity_focal(param, targets.astype(np.float64), cfg)
            grad = tape.backward(loss)[param]
        assert np.all(grad[targets == 1] < 0)
        assert np.all(grad[targets == 0] > 0)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_float32_map_matches_float64_closed_form(self, gamma):
        # forward and backward of the float32 op against the closed form
        # evaluated in float64, with p and 1 - p from separate exponentials
        alpha, eps = 0.75, 1e-8
        special = [0.0, 1e-3, -1e-3, 3.0, -3.0, 20.0, -20.0, 88.0, -88.0,
                   1e4, -1e4]
        rng = np.random.default_rng(21)
        s32 = np.concatenate([special, special,
                              rng.normal(scale=4.0, size=4000)]).astype(
                                  np.float32)
        y = np.zeros(s32.shape, dtype=np.float32)
        y[:len(special)] = 1.0
        y[2 * len(special):] = rng.random(4000) < 0.3
        param = Parameter(s32, "s")
        with Tape() as tape:
            fmap = ops.focal_loss_map(param, y, alpha, gamma, eps)
            grads = tape.backward(ops.weighted_sum(fmap, np.ones(s32.shape)))
        assert fmap.dtype == np.float32 and grads[param].dtype == np.float32

        s = s32.astype(np.float64)
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-s))
            q = 1.0 / (1.0 + np.exp(s))
        lp, lq = np.log(p + eps), np.log(q + eps)
        ref = (-alpha * y * q ** gamma * lp
               - (1 - alpha) * (1 - y) * p ** gamma * lq)
        dref = (alpha * y * (gamma * p * q ** gamma * lp
                             - p * q ** (gamma + 1) / (p + eps))
                + (1 - alpha) * (1 - y) * (p ** (gamma + 1) * q / (q + eps)
                                           - gamma * q * p ** gamma * lq))
        tol = 8 * np.finfo(np.float32).eps
        for got, want in ((fmap.data, ref), (grads[param], dref)):
            err = np.abs(got.astype(np.float64) - want)
            big = np.abs(want) > 1e-6
            assert np.all(err[big] <= tol * np.abs(want[big]))
            assert np.all(err[~big] <= 2e-6)

    def test_finite_at_extreme_logits(self):
        cfg = LossConfig()
        logits = Tensor(np.array([[-1e4, 1e4]], dtype=np.float32).reshape(
            1, 1, 2, 1, 1))
        targets = np.zeros((1, 1, 2, 1, 1), dtype=np.float32)
        val = polarity_focal(logits, targets, cfg).item()
        assert np.isfinite(val) and val >= 0


# ---------------------------------------------------------------------------
# temporal difference regularizer
# ---------------------------------------------------------------------------

class TestDdrLoss:
    def test_identical_inputs_zero(self):
        rng = np.random.default_rng(2)
        probs = rng.random((2, 4, 2, 3, 3)).astype(np.float32)
        got = ddr_loss(Tensor(probs), probs, tau=1.0).item()
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_time_constant_inputs_zero(self):
        probs = np.full((1, 3, 2, 2, 2), 0.7, dtype=np.float32)
        targets = np.full((1, 3, 2, 2, 2), 0.2, dtype=np.float32)
        got = ddr_loss(Tensor(probs), targets, tau=1.0).item()
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_hand_scalar_case(self):
        # T_out=2, 1x1 spatial, 2 channels: one difference vector of length 2
        probs = np.array([0.2, 0.6, 0.9, 0.3], dtype=np.float32).reshape(
            1, 2, 2, 1, 1)
        targets = np.array([0.1, 0.8, 0.5, 0.4], dtype=np.float32).reshape(
            1, 2, 2, 1, 1)
        tau = 1.0
        dp = [0.9 - 0.2, 0.3 - 0.6]
        dt = [0.5 - 0.1, 0.4 - 0.8]

        def softmax(v):
            e = [math.exp(x / tau) for x in v]
            s = sum(e)
            return [x / s for x in e]

        pp, qq = softmax(dp), softmax(dt)
        eps = 1e-8
        expected = sum(a * (math.log(a + eps) - math.log(b + eps))
                       for a, b in zip(pp, qq))
        got = ddr_loss(Tensor(probs), targets, tau).item()
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("seed,tau", [(0, 1.0), (1, 0.5), (2, 2.0)])
    def test_matches_oracle_random(self, seed, tau):
        rng = np.random.default_rng(seed)
        probs = rng.random((2, 4, 2, 3, 3)).astype(np.float32)
        targets = (rng.random((2, 4, 2, 3, 3)) < 0.4).astype(np.float32)
        got = ddr_loss(Tensor(probs), targets, tau).item()
        assert got == pytest.approx(ddr_oracle(probs, targets, tau), rel=1e-4,
                                    abs=1e-6)

    def test_shift_invariance_per_frame(self):
        rng = np.random.default_rng(4)
        probs = rng.random((1, 3, 2, 4, 4)).astype(np.float64) * 0.5
        targets = rng.random((1, 3, 2, 4, 4)).astype(np.float64) * 0.5
        base = ddr_loss(Tensor(probs), targets, tau=1.0).item()
        offs = np.array([0.0, 0.1, 0.25]).reshape(1, 3, 1, 1, 1)
        shifted = ddr_loss(Tensor(probs + offs), targets + offs, 1.0).item()
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_requires_two_frames(self):
        probs = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="T_out"):
            ddr_loss(Tensor(probs), probs, tau=1.0)

    def test_nonnegative_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            probs = rng.random((1, 3, 2, 2, 2)).astype(np.float32)
            targets = (rng.random((1, 3, 2, 2, 2)) < 0.5).astype(np.float32)
            assert ddr_loss(Tensor(probs), targets, 1.0).item() >= -1e-7


# ---------------------------------------------------------------------------
# combined objective
# ---------------------------------------------------------------------------

class TestTotalLoss:
    def test_alpha_ddr_zero_is_bitwise_focal(self):
        cfg = LossConfig(alpha_ddr=0.0)
        logits, targets = random_instance(0)
        a = total_loss(Tensor(logits), targets, cfg).item()
        b = polarity_focal(Tensor(logits), targets, cfg).item()
        assert a == b

    def test_composition_matches_parts(self):
        cfg = LossConfig()
        logits, targets = random_instance(3)
        t = Tensor(logits)
        whole = total_loss(t, targets, cfg).item()
        pol = polarity_focal(t, targets, cfg).item()
        probs = ops.sigmoid(t)
        reg = ddr_loss(probs, targets, cfg.tau, eps=cfg.eps).item()
        assert whole == pytest.approx(pol + cfg.alpha_ddr * reg, rel=1e-6)

    def test_finite_for_any_finite_logits(self):
        cfg = LossConfig()
        logits = np.array([-1e4, 1e4, 0.0, -3.3], dtype=np.float32).reshape(
            1, 2, 2, 1, 1)
        targets = np.array([0, 1, 1, 0], dtype=np.float32).reshape(
            1, 2, 2, 1, 1)
        assert np.isfinite(total_loss(Tensor(logits), targets, cfg).item())

    @pytest.mark.parametrize("alpha_ddr", [0.0, 0.1])
    def test_gradient_check(self, alpha_ddr):
        cfg = LossConfig(alpha_ddr=alpha_ddr)
        rng = np.random.default_rng(8)
        shape = (1, 3, 2, 4, 4)
        logits = Parameter(rng.normal(scale=1.5, size=shape), "s",
                           dtype=np.float64)
        targets = (rng.random(shape) < 0.3).astype(np.float64)
        # eps=1e-4: the loss is a mean over 96 cells, so per-cell gradients
        # are ~1e-7 and a smaller step hits float64 cancellation
        err = grad_check(lambda: total_loss(logits, targets, cfg),
                         [logits], eps=1e-4)
        assert err < 1e-5


# ---------------------------------------------------------------------------
# what the loss ops save, bit for bit and in bytes
# ---------------------------------------------------------------------------

def focal_grad_reference(s, y, alpha, gamma, eps, g):
    """dL/ds of focal_loss_map from the formulas its backward used when the
    tape kept sigmoid(t), 1 - sigmoid(t), its gamma power and the log term:
    the same numpy calls in the same order, for a byte-for-byte check."""
    s, y, g = s.reshape(-1), y.reshape(-1), g.reshape(-1)
    log_eps = math.log(eps)
    buf = np.multiply(y, 2.0)
    buf -= 1.0
    t = np.multiply(s, buf)
    st = np.greater_equal(t, 0.0, out=np.empty_like(s))
    e = np.exp(-np.abs(s))
    np.log1p(e, out=buf)
    t = np.maximum(-t, 0.0) + buf
    buf = np.log1p(np.exp(-np.abs(t + log_eps)))
    logt = np.maximum(-t, log_eps) + buf
    sf = 1.0 - st
    st = np.maximum(e, st)
    sf = np.maximum(e, sf)
    e = e + 1.0
    st /= e
    sf /= e
    sfg = np.power(sf, gamma)
    d = np.multiply(logt, gamma)
    d -= np.divide(sf, np.add(st, eps))
    d *= st
    d *= sfg
    d *= np.add(y, alpha - 1.0)
    d *= g
    return d


class TestLossOpsSavedState:
    """The loss ops keep one derivative array under a tape; the gradients
    keep the bits of the formulas they used before."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_focal_grad_bits(self, dtype, gamma):
        rng = np.random.default_rng(31)
        special = [0.0, 1e-3, -1e-3, 20.0, -20.0, 88.0, -88.0, 1e4, -1e4]
        s = np.concatenate([special, special, rng.normal(scale=4.0, size=526)])
        s = s.astype(dtype).reshape(2, 1, 2, 8, 17)
        y = (rng.random(s.shape) < 0.3).astype(dtype)
        y.reshape(-1)[:len(special)] = 1.0
        y.reshape(-1)[len(special):2 * len(special)] = 0.0
        w = rng.uniform(0.5, 1.5, size=s.shape).astype(dtype)
        logits = Parameter(s, "s", dtype=dtype)
        with Tape() as tape:
            fmap = ops.focal_loss_map(logits, y, 0.75, gamma, 1e-8)
            grads = tape.backward(ops.weighted_sum(fmap, w))
        g = np.zeros(s.shape, dtype)
        g += np.ones((), dtype) * w
        want = np.zeros(s.shape, dtype)
        want += focal_grad_reference(s, y, 0.75, gamma, 1e-8, g).reshape(
            s.shape)
        assert grads[logits].dtype == dtype
        assert grads[logits].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("q_grad", [False, True])
    def test_kl_grad_bits(self, dtype, q_grad):
        rng = np.random.default_rng(32)
        eps = 1e-8

        def rows():
            e = np.exp(rng.normal(scale=3.0, size=(3, 40)))
            return (e / e.sum(axis=-1, keepdims=True)).astype(dtype)
        p = Tensor(rows(), requires_grad=True, dtype=dtype)
        q = Tensor(rows(), requires_grad=q_grad, dtype=dtype)
        with Tape() as tape:
            grads = tape.backward(ops.scale(ops.kl_div(p, q, eps=eps), 0.37))
        g = np.zeros((), dtype)
        g += np.ones((), dtype) * 0.37
        lp = np.log(p.data + eps)
        lq = np.log(q.data + eps)
        want_p = np.zeros_like(p.data)
        want_p += g * ((lp - lq) + p.data / (p.data + eps))
        assert grads[p].tobytes() == want_p.tobytes()
        if q_grad:
            want_q = np.zeros_like(q.data)
            want_q += g * (-p.data / (q.data + eps))
            assert grads[q].tobytes() == want_q.tobytes()
        else:
            assert q not in grads

    def test_total_loss_live_bytes_bounded(self):
        # under a tape the loss keeps three full-size arrays (the focal map,
        # its derivative, the sigmoid) and three of (T-1)/T the size (the
        # frame differences, their softmax, the KL derivative); the target
        # softmax is not kept. A quarter of the logits covers the Python
        # objects and numpy's cache of small blocks.
        shape = (2, 4, 2, 32, 32)
        rng = np.random.default_rng(33)
        logits = Parameter(rng.normal(size=shape), "s", dtype=np.float32)
        targets = (rng.random(shape) < 0.3).astype(np.float32)
        t = shape[1]
        bound = (3 + 3 * (t - 1) / t + 0.25) * logits.data.nbytes
        with Tape():
            total_loss(logits, targets, LossConfig())  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape():
                loss = total_loss(logits, targets, LossConfig())
                live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        assert live <= bound, (live, bound)

    def test_nothing_but_param_grads_live_after_backward(self):
        # a tiny model step: once backward has run, only the parameter
        # gradients and the scalar loss remain, although the tape is still
        # referenced; 32 KiB covers the Python objects and numpy's cache of
        # small blocks (a tape that kept its nodes would hold 1.5 MiB here)
        cfg = ModelConfig(t_in=3, t_out=3, height=32, width=32, c_step=2,
                          n_blocks=1, enc_widths=(4,), dec_widths=(8, 4))
        model = init_params(cfg, seed=0)
        rng = np.random.default_rng(34)
        x = (rng.random((2, 3, 2, 32, 32)) < 0.3).astype(np.float32)
        y = (rng.random((2, 3, 2, 32, 32)) < 0.3).astype(np.float32)

        def step():
            with Tape() as tape:
                loss = total_loss(model.forward(Tensor(x), training=True,
                                                rng=np.random.default_rng(1)),
                                  y, LossConfig())
                grads = tape.backward(loss)
            return tape, loss, grads

        step()  # warm caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape, loss, grads = step()
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item()) and len(tape) == 0
        grad_bytes = sum(grads[p].nbytes for p in model.parameters())
        assert live <= grad_bytes + 32 * 1024, (live, grad_bytes)
