"""Central-difference gradient verification.

grad_check compares tape gradients against (f(x+eps) - f(x-eps)) / (2 eps)
for every checked entry, in float64. run_op_suite covers each differentiable
op with small random instances; check_model_gradients runs the same
comparison through a full composed forward + loss.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional

import numpy as np

from . import ops
from .tensor import Parameter, Tape, Tensor


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(fn: Callable[[], Tensor], params: Iterable[Parameter],
               eps: float = 1e-5,
               max_entries_per_param: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> float:
    """Return the worst relative error between tape and numeric gradients.

    fn must rebuild the scalar loss from the current parameter values on
    every call; parameters are perturbed in place for the difference
    quotients. With max_entries_per_param set, a seeded subsample of each
    tensor's entries is checked instead of all of them.
    """
    params = list(params)
    for p in params:
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 params, got {p.dtype}")
        p.grad = None

    with Tape() as tape:
        out = fn()
        tape.backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        idx = np.arange(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            sampler = rng if rng is not None else np.random.default_rng(0)
            idx = sampler.choice(flat.size, size=max_entries_per_param,
                                 replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = fn().item()
            flat[i] = orig - eps
            f_minus = fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, relative_error(float(a_flat[i]), numeric))
    return worst


def _p(rng: np.random.Generator, shape, name: str, lo=-1.0, hi=1.0) -> Parameter:
    return Parameter(rng.uniform(lo, hi, size=shape), name, dtype=np.float64)


def _scalarize(t: Tensor, rng: np.random.Generator) -> Tensor:
    # fixed random projection so every output entry influences the scalar;
    # magnitudes stay in [0.5, 1.5] to keep the difference quotient
    # well-conditioned entrywise
    w = rng.uniform(0.5, 1.5, size=t.shape)
    w *= rng.choice([-1.0, 1.0], size=t.shape)
    return ops.weighted_sum(t, w)


def op_suite_cases() -> dict:
    """Name -> builder(seed) returning (fn, params) for grad_check."""

    def conv2d_s1(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 3, 6, 7), "x")
        w = _p(rng, (4, 3, 3, 3), "w")
        b = _p(rng, (4,), "b")
        return (lambda: _scalarize(ops.conv2d(x, w, b, stride=1, padding=1),
                                   np.random.default_rng(seed + 1))), [x, w, b]

    def conv2d_s2(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 2, 7, 7), "x")
        w = _p(rng, (3, 2, 3, 3), "w")
        b = _p(rng, (3,), "b")
        return (lambda: _scalarize(ops.conv2d(x, w, b, stride=2, padding=1),
                                   np.random.default_rng(seed + 1))), [x, w, b]

    def conv2d_s2_im2col(seed):
        # cout > 4*cin takes im2col; conv2d_s2 takes the stride phases
        rng = np.random.default_rng(seed)
        x = _p(rng, (1, 2, 6, 5), "x")
        w = _p(rng, (9, 2, 3, 3), "w")
        b = _p(rng, (9,), "b")
        return (lambda: _scalarize(ops.conv2d(x, w, b, stride=2, padding=1),
                                   np.random.default_rng(seed + 1))), [x, w, b]

    def upsample_conv(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 3, 3, 4), "x")
        w = _p(rng, (4, 3, 3, 3), "w")
        b = _p(rng, (4,), "b")
        return (lambda: _scalarize(ops.upsample2_conv2d(x, w, b),
                                   np.random.default_rng(seed + 1))), [x, w, b]

    def depthwise(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 4, 6, 6), "x")
        w = _p(rng, (4, 1, 5, 5), "w")
        return (lambda: _scalarize(ops.conv2d(x, w, padding=2),
                                   np.random.default_rng(seed + 1))), [x, w]

    def depthwise_dilated(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 3, 9, 9), "x")
        w = _p(rng, (3, 1, 3, 3), "w")
        return (lambda: _scalarize(
            ops.conv2d(x, w, dilation=2, padding=2),
            np.random.default_rng(seed + 1))), [x, w]

    def depthwise_mix2(seed):
        # the model's dilated mixing conv, k7 d3 "same" padding 9, on an
        # input wide enough that every tap sees data
        rng = np.random.default_rng(seed)
        x = _p(rng, (1, 2, 10, 11), "x")
        w = _p(rng, (2, 1, 7, 7), "w")
        return (lambda: _scalarize(
            ops.conv2d(x, w, dilation=3, padding=9),
            np.random.default_rng(seed + 1))), [x, w]

    def depthwise_wide_pad(seed):
        # padding 5 > d(k-1) = 4: the input gradient crops g
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 3, 5, 6), "x")
        w = _p(rng, (3, 1, 5, 5), "w")
        return (lambda: _scalarize(ops.conv2d(x, w, padding=5),
                                   np.random.default_rng(seed + 1))), [x, w]

    def pointwise(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 5, 4, 4), "x")
        w = _p(rng, (3, 5, 1, 1), "w")
        b = _p(rng, (3,), "b")
        return (lambda: _scalarize(ops.conv2d(x, w, b),
                                   np.random.default_rng(seed + 1))), [x, w, b]

    def linear_(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (3, 7), "x")
        w = _p(rng, (4, 7), "w")
        b = _p(rng, (4,), "b")
        return (lambda: _scalarize(ops.linear(x, w, b),
                                   np.random.default_rng(seed + 1))), [x, w, b]

    def layer_norm(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 6, 3, 3), "x")
        g = _p(rng, (6,), "g", 0.5, 1.5)
        b = _p(rng, (6,), "b")
        return (lambda: _scalarize(ops.layer_norm_channels(x, g, b),
                                   np.random.default_rng(seed + 1))), [x, g, b]

    def relu_(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 5, 4, 4), "x")
        # keep entries away from the kink so the difference quotient is valid
        x.data += 0.1 * np.sign(x.data)
        return (lambda: _scalarize(ops.relu(x),
                                   np.random.default_rng(seed + 1))), [x]

    def gelu_(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (3, 17), "x", -2.0, 2.0)
        return (lambda: _scalarize(ops.gelu(x),
                                   np.random.default_rng(seed + 1))), [x]

    def sigmoid_(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (4, 6), "x", -3.0, 3.0)
        return (lambda: _scalarize(ops.sigmoid(x),
                                   np.random.default_rng(seed + 1))), [x]

    def softmax_(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (4, 9), "x", -2.0, 2.0)
        return (lambda: _scalarize(ops.softmax_temp(x, tau=0.7),
                                   np.random.default_rng(seed + 1))), [x]

    def kl_(seed):
        rng = np.random.default_rng(seed)
        a = _p(rng, (3, 8), "a", -1.5, 1.5)
        b = _p(rng, (3, 8), "b", -1.5, 1.5)
        return (lambda: ops.kl_div(ops.softmax_temp(a, 1.0),
                                   ops.softmax_temp(b, 1.0))), [a, b]

    def masked_pool(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 4, 5, 5), "x")
        mask = (rng.random((2, 1, 5, 5)) < 0.3).astype(np.float64)
        mask[:, :, 0, 0] = 1.0  # at least one active site per sample
        return (lambda: _scalarize(ops.masked_mean_pool(x, mask),
                                   np.random.default_rng(seed + 1))), [x]

    def gated(seed):
        rng = np.random.default_rng(seed)
        g = _p(rng, (2, 3), "g", 0.1, 0.9)
        f = _p(rng, (2, 3, 4, 4), "f")
        u = _p(rng, (2, 3, 4, 4), "u")
        return (lambda: _scalarize(ops.gated_product(g, f, u),
                                   np.random.default_rng(seed + 1))), [g, f, u]

    def gated_no_base(seed):
        rng = np.random.default_rng(seed)
        g = _p(rng, (2, 3), "g", 0.1, 0.9)
        f = _p(rng, (2, 3, 4, 4), "f")
        return (lambda: _scalarize(ops.gated_product(g, f),
                                   np.random.default_rng(seed + 1))), [g, f]

    def framediff(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (2, 5, 3, 3), "x")
        return (lambda: _scalarize(ops.frame_diff(x),
                                   np.random.default_rng(seed + 1))), [x]

    def arithmetic_chain(seed):
        rng = np.random.default_rng(seed)
        a = _p(rng, (2, 3, 4), "a")
        b = _p(rng, (2, 3, 4), "b")

        def fn():
            s = ops.add(a, ops.scale(b, 1.7))
            r = ops.reshape(s, (2, 12))
            return _scalarize(r, np.random.default_rng(seed + 1))
        return fn, [a, b]

    def focal(seed):
        rng = np.random.default_rng(seed)
        logits = _p(rng, (2, 3, 4, 4), "s", -3.0, 3.0)
        y = (rng.random((2, 3, 4, 4)) < 0.4).astype(np.float64)
        return (lambda: _scalarize(
            ops.focal_loss_map(logits, y, alpha=0.75, gamma=2.0),
            np.random.default_rng(seed + 1))), [logits]

    def focal_gamma0(seed):
        rng = np.random.default_rng(seed)
        logits = _p(rng, (2, 2, 3, 3), "s", -3.0, 3.0)
        y = (rng.random((2, 2, 3, 3)) < 0.5).astype(np.float64)
        return (lambda: _scalarize(
            ops.focal_loss_map(logits, y, alpha=0.5, gamma=0.0),
            np.random.default_rng(seed + 1))), [logits]

    def focal_gamma_half(seed):
        rng = np.random.default_rng(seed)
        logits = _p(rng, (2, 3, 3, 4), "s", -4.0, 4.0)
        y = (rng.random((2, 3, 3, 4)) < 0.3).astype(np.float64)
        return (lambda: _scalarize(
            ops.focal_loss_map(logits, y, alpha=0.25, gamma=0.5),
            np.random.default_rng(seed + 1))), [logits]

    def droppath(seed):
        rng = np.random.default_rng(seed)
        x = _p(rng, (6, 3, 2, 2), "x")

        def fn():
            # fixed mask across re-evaluations so the quotient is well posed
            branch = ops.drop_path(ops.gelu(x), rate=0.4, training=True,
                                   rng=np.random.default_rng(seed + 2))
            return _scalarize(ops.add(x, branch),
                              np.random.default_rng(seed + 1))
        return fn, [x]

    return {
        "conv2d_stride1": conv2d_s1,
        "conv2d_stride2": conv2d_s2,
        "conv2d_stride2_im2col": conv2d_s2_im2col,
        "conv2d_depthwise": depthwise,
        "conv2d_depthwise_dilated": depthwise_dilated,
        "conv2d_depthwise_k7_d3": depthwise_mix2,
        "conv2d_depthwise_k5_pad5": depthwise_wide_pad,
        "conv2d_pointwise": pointwise,
        "linear": linear_,
        "layer_norm_channels": layer_norm,
        "relu": relu_,
        "gelu": gelu_,
        "sigmoid": sigmoid_,
        "softmax_temp": softmax_,
        "kl_div": kl_,
        "masked_mean_pool": masked_pool,
        "gated_product": gated,
        "gated_product_no_base": gated_no_base,
        "upsample2_conv2d": upsample_conv,
        "frame_diff": framediff,
        "add_scale_reshape": arithmetic_chain,
        "focal_loss_map": focal,
        "focal_loss_map_gamma0": focal_gamma0,
        "focal_loss_map_gamma_half": focal_gamma_half,
        "drop_path": droppath,
    }


def run_op_suite(seeds=(0, 1, 2, 3, 4), eps: float = 1e-5,
                 tol: float = 1e-5) -> list[dict]:
    """Run every op case at each seed; returns per-case result records."""
    results = []
    for name, builder in op_suite_cases().items():
        worst = 0.0
        for seed in seeds:
            fn, params = builder(int(seed))
            worst = max(worst, grad_check(fn, params, eps=eps))
        results.append({"check": name, "max_rel_err": worst,
                        "passed": worst < tol})
    return results


def check_model_gradients(seed: int = 171, eps: float = 1e-5,
                          max_entries_per_param: Optional[int] = None) -> float:
    """Gradient-check the composed forward + loss on a small configuration.

    The evaluation point matters more than usual here, so the default seed
    is a vetted one rather than 0. Two hazards rule out arbitrary points:

    * At the symmetric init (gamma=1, beta=0, zero biases) the per-location
      activity statistics tie to within ~1e-11, and the difference quotient
      steps across the hard activity-mask threshold. The parameters are
      jittered to a generic point where the mask is locally constant, which
      is the regime the backward pass defines.
    * Channel norm over the two encoder output channels maps any distinct
      pair to roughly +/-1, so its Jacobian shrinks like eps_ln / gap^3 and
      encoder-weight gradients can land in a band (roughly 1e-9..1e-7)
      that central differences cannot resolve against float64 rounding of
      a ~0.1-magnitude loss at any step size. The default seed gives a
      point where every gradient entry is either exactly zero (kernel taps
      that only ever see padding) or above ~1e-6, comfortably clear of the
      noise floor; measured max relative error is ~3e-6 at eps=1e-5.
    """
    from ..losses import LossConfig, total_loss
    from ..model import ModelConfig, init_params

    cfg = ModelConfig(t_in=3, t_out=3, height=8, width=8, c_step=2,
                      n_blocks=1, enc_widths=(4,), dec_widths=(8, 4),
                      droppath_rate=0.0)
    model = init_params(cfg, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 100)
    for p in model.parameters():
        p.data = p.data + rng.uniform(-0.3, 0.3, size=p.shape)
    x = rng.random((1, cfg.t_in, 2, cfg.height, cfg.width))
    y = (rng.random((1, cfg.t_out, 2, cfg.height, cfg.width)) < 0.25)
    y = y.astype(np.float64)
    lcfg = LossConfig()

    def fn():
        logits = model.forward(Tensor(x, dtype=np.float64), training=False)
        return total_loss(logits, y, lcfg)

    return grad_check(fn, model.parameters(), eps=eps,
                      max_entries_per_param=max_entries_per_param,
                      rng=np.random.default_rng(seed + 7))
