"""Central-difference gradient verification.

grad_check compares tape gradients against (f(x+eps) - f(x-eps)) / (2 eps)
for every checked entry, in float64. run_op_suite covers each differentiable
op with small random instances; check_model_gradients runs the same
comparison through a full composed forward + loss.

The op suite is a table: a row is a name and a builder(seed). Most rows
come from _case(op, *param_specs, const=None), which draws the named
float64 parameters in turn from default_rng(seed), then any constant
(targets or a mask), and scores a fixed random projection of op's output.
Only relu (its kink shift), kl_div (already a scalar) and drop_path (its
own mask stream) are written out.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable

import numpy as np

from . import ops
from .tensor import Parameter, Tape, Tensor


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(fn: Callable[[], Tensor], params: Iterable[Parameter],
               eps: float = 1e-5) -> float:
    """Return the worst relative error between tape and numeric gradients
    over every entry of every parameter.

    fn must rebuild the scalar loss from the current parameter values on
    every call; parameters are perturbed in place for the difference
    quotients. The tape gradients are the map one fresh tape returns.
    """
    params = list(params)
    for p in params:
        if p.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 params, got {p.dtype}")

    with Tape() as tape:
        grads = tape.backward(fn())
    analytic = [grads[p] if p in grads else np.zeros_like(p.data)
                for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        for i in np.ndindex(p.shape):  # p.data itself, at any strides
            orig = p.data[i]
            p.data[i] = orig + eps
            f_plus = fn().item()
            p.data[i] = orig - eps
            f_minus = fn().item()
            p.data[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, relative_error(float(a[i]), numeric))
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


def _case(op: Callable[..., Tensor], *param_specs, const=None):
    """Builder(seed) -> (fn, params) for one op-suite row.

    Each spec is (name, shape) or (name, shape, lo, hi); the float64
    parameters are drawn uniformly in turn from default_rng(seed), then
    const(rng), when given, draws one constant (a target or a mask) from
    the same stream. fn scores _scalarize(op(*params[, const])) with the
    projection drawn from default_rng(seed + 1).
    """
    def build(seed):
        rng = np.random.default_rng(seed)
        params = [_p(rng, shape, name, *bounds)
                  for name, shape, *bounds in param_specs]
        args = params if const is None else params + [const(rng)]

        def fn():
            return _scalarize(op(*args), np.random.default_rng(seed + 1))
        return fn, params
    return build


def _mask(shape, rate):
    """const(rng) drawing a {0, 1} float64 array, 1 with probability rate."""
    return lambda rng: (rng.random(shape) < rate).astype(np.float64)


def _pool_mask(rng):
    mask = _mask((2, 1, 5, 5), 0.3)(rng)
    mask[:, :, 0, 0] = 1.0  # at least one active site per sample
    return mask


def _stem_events(rng):
    """Two 2x2 event patches: 4 of each sample's 16 stem windows see
    events, so conv_ln_gelu takes its sparse route."""
    mask = np.zeros((2, 2, 8, 8))
    mask[0, :, 2:4, 2:4] = 1.0
    mask[1, 1, 5:7, 1:3] = 1.0
    return mask * rng.uniform(0.5, 1.5, size=mask.shape)


def _enc1_events(rng):
    """Events on a [2, 1, 16, 28] input. Through two stride-2 stages they
    activate the first stage's locations (3, 5) in sample 0, and (4, 6)
    and (4, 7) in sample 1; the second stage's 4x7 plane then has 14 and 12
    active windows of 28, its top row and left column (which read the
    zero padding) among them."""
    events = np.zeros((2, 1, 16, 28))
    events[0, 0, 6, 10] = events[1, 0, 8, 13] = 1.0
    return events * rng.uniform(0.5, 1.5, size=events.shape)


def _relu(seed):
    rng = np.random.default_rng(seed)
    x = _p(rng, (2, 5, 4, 4), "x")
    # keep entries away from the kink so the difference quotient is valid
    x.data += 0.1 * np.sign(x.data)
    return (lambda: _scalarize(ops.relu(x),
                               np.random.default_rng(seed + 1))), [x]


def _kl_div(seed):
    rng = np.random.default_rng(seed)
    a = _p(rng, (3, 8), "a", -1.5, 1.5)
    b = _p(rng, (3, 8), "b", -1.5, 1.5)
    return (lambda: ops.kl_div(ops.softmax_temp(a, 1.0),
                               ops.softmax_temp(b, 1.0))), [a, b]


def _drop_path(seed):
    rng = np.random.default_rng(seed)
    x = _p(rng, (6, 3, 2, 2), "x")

    def fn():
        # fixed mask across re-evaluations so the quotient is well posed
        branch = ops.drop_path(ops.gelu(x), rate=0.4, training=True,
                               rng=np.random.default_rng(seed + 2))
        return _scalarize(ops.add(x, branch), np.random.default_rng(seed + 1))
    return fn, [x]


def op_suite_cases() -> dict:
    """Name -> builder(seed) returning (fn, params) for grad_check."""
    return {
        "conv2d_stride1": _case(
            lambda x, w, b: ops.conv2d(x, w, b, stride=1, padding=1),
            ("x", (2, 3, 6, 7)), ("w", (4, 3, 3, 3)), ("b", (4,))),
        "conv2d_stride2": _case(
            lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1),
            ("x", (2, 2, 7, 7)), ("w", (3, 2, 3, 3)), ("b", (3,))),
        # cout > 4*cin takes im2col; conv2d_stride2 takes the stride phases
        "conv2d_stride2_im2col": _case(
            lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1),
            ("x", (1, 2, 6, 5)), ("w", (9, 2, 3, 3)), ("b", (9,))),
        "conv2d_depthwise": _case(
            lambda x, w: ops.conv2d(x, w, padding=2),
            ("x", (2, 4, 6, 6)), ("w", (4, 1, 5, 5))),
        "conv2d_depthwise_dilated": _case(
            lambda x, w: ops.conv2d(x, w, dilation=2, padding=2),
            ("x", (2, 3, 9, 9)), ("w", (3, 1, 3, 3))),
        # the model's dilated mixing conv, k7 d3 "same" padding 9, on an
        # input wide enough that every tap sees data
        "conv2d_depthwise_k7_d3": _case(
            lambda x, w: ops.conv2d(x, w, dilation=3, padding=9),
            ("x", (1, 2, 10, 11)), ("w", (2, 1, 7, 7))),
        # padding 5 > d(k-1) = 4: the input gradient crops g
        "conv2d_depthwise_k5_pad5": _case(
            lambda x, w: ops.conv2d(x, w, padding=5),
            ("x", (2, 3, 5, 6)), ("w", (3, 1, 5, 5))),
        "conv2d_pointwise": _case(
            ops.conv2d, ("x", (2, 5, 4, 4)), ("w", (3, 5, 1, 1)), ("b", (3,))),
        "linear": _case(
            ops.linear, ("x", (3, 7)), ("w", (4, 7)), ("b", (4,))),
        "layer_norm_channels": _case(
            ops.layer_norm_channels,
            ("x", (2, 6, 3, 3)), ("g", (6,), 0.5, 1.5), ("b", (6,))),
        "relu": _relu,
        "gelu": _case(ops.gelu, ("x", (3, 17), -2.0, 2.0)),
        "sigmoid": _case(ops.sigmoid, ("x", (4, 6), -3.0, 3.0)),
        "softmax_temp": _case(lambda x: ops.softmax_temp(x, tau=0.7),
                              ("x", (4, 9), -2.0, 2.0)),
        "kl_div": _kl_div,
        "masked_mean_pool": _case(ops.masked_mean_pool, ("x", (2, 4, 5, 5)),
                                  const=_pool_mask),
        "gated_product": _case(
            ops.gated_product, ("g", (2, 3), 0.1, 0.9),
            ("f", (2, 3, 4, 4)), ("u", (2, 3, 4, 4))),
        "gated_product_no_base": _case(
            ops.gated_product, ("g", (2, 3), 0.1, 0.9), ("f", (2, 3, 4, 4))),
        "conv2d_upsample": _case(
            partial(ops.conv2d, padding=1, upsample=True),
            ("x", (2, 3, 3, 4)), ("w", (4, 3, 3, 3)), ("b", (4,))),
        # a dense input that needs a gradient takes the dense route
        "conv_ln_gelu_sparse": _case(
            lambda w, b, g, be, x: ops.conv_ln_gelu(
                Tensor(x), w, b, g, be, stride=2, padding=1),
            ("w", (9, 2, 3, 3)), ("b", (9,)), ("g", (9,), 0.5, 1.5),
            ("be", (9,)), const=_stem_events),
        # enc0 -> enc1: the second stage reads the first's ActiveSet, and
        # its per-tap GEMMs have 4 rows of 8 stride-phase columns, whole
        # column groups
        "conv_ln_gelu_active_set": _case(
            lambda w0, b0, g0, be0, w1, b1, g1, be1, x: ops.conv_ln_gelu(
                ops.conv_ln_gelu(Tensor(x), w0, b0, g0, be0, stride=2,
                                 padding=1, active_set=True),
                w1, b1, g1, be1, stride=2, padding=1),
            ("w0", (5, 1, 3, 3)), ("b0", (5,)), ("g0", (5,), 0.5, 1.5),
            ("be0", (5,)), ("w1", (3, 5, 3, 3)), ("b1", (3,)),
            ("g1", (3,), 0.5, 1.5), ("be1", (3,)), const=_enc1_events),
        # enc1's route: a strided conv on the stride phases
        "conv_ln_gelu_dense": _case(
            partial(ops.conv_ln_gelu, stride=2, padding=1),
            ("x", (2, 4, 7, 6)), ("w", (3, 4, 3, 3)), ("b", (3,)),
            ("g", (3,), 0.5, 1.5), ("be", (3,))),
        "conv_ln_gelu_upsample": _case(
            partial(ops.conv_ln_gelu, padding=1, upsample=True),
            ("x", (2, 3, 3, 4)), ("w", (4, 3, 3, 3)), ("b", (4,)),
            ("g", (4,), 0.5, 1.5), ("be", (4,))),
        "frame_diff": _case(ops.frame_diff, ("x", (2, 5, 3, 3))),
        "add_scale_reshape": _case(
            lambda a, b: ops.reshape(ops.add(a, ops.scale(b, 1.7)), (2, 12)),
            ("a", (2, 3, 4)), ("b", (2, 3, 4))),
        "focal_loss_map": _case(
            lambda s, y: ops.focal_loss_map(s, y, alpha=0.75, gamma=2.0),
            ("s", (2, 3, 4, 4), -3.0, 3.0), const=_mask((2, 3, 4, 4), 0.4)),
        "focal_loss_map_gamma0": _case(
            lambda s, y: ops.focal_loss_map(s, y, alpha=0.5, gamma=0.0),
            ("s", (2, 2, 3, 3), -3.0, 3.0), const=_mask((2, 2, 3, 3), 0.5)),
        "focal_loss_map_gamma_half": _case(
            lambda s, y: ops.focal_loss_map(s, y, alpha=0.25, gamma=0.5),
            ("s", (2, 3, 3, 4), -4.0, 4.0), const=_mask((2, 3, 3, 4), 0.3)),
        "drop_path": _drop_path,
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


def check_model_gradients(seed: int = 171, eps: float = 1e-5) -> float:
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

    return grad_check(fn, model.parameters(), eps=eps)
