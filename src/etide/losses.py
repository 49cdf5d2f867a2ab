"""Training objective: polarity-weighted focal term plus a temporal
difference-distribution regularizer.

The focal term scores every cell of the [B, T_out, 2, H, W] logit tensor
against the binary target, weights the ON/OFF channels by lambda_on and
lambda_off (normalized to sum to 1), and averages with 1/(T_out*H*W) per
sample, then over the batch. The regularizer softmaxes each flattened
inter-frame difference of predicted probabilities and of float-cast
targets at temperature tau and penalizes KL(pred || target), averaged over
the T_out-1 pairs and the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, as_tensor, ops


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.75
    gamma: float = 2.0
    lambda_on: float = 0.65
    lambda_off: float = 0.35
    alpha_ddr: float = 0.1
    tau: float = 1.0
    eps: float = 1e-8

    def __post_init__(self):
        # the range checks below let NaN through, and infinity through some
        for name in ("gamma", "lambda_on", "lambda_off", "alpha_ddr", "tau",
                     "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.lambda_on < 0 or self.lambda_off < 0 \
                or self.lambda_on + self.lambda_off <= 0:
            raise ValueError("polarity weights must be nonnegative, sum > 0")
        if self.alpha_ddr < 0.0:
            raise ValueError(f"alpha_ddr must be >= 0, got {self.alpha_ddr}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        s = self.lambda_on + self.lambda_off
        object.__setattr__(self, "lambda_on", self.lambda_on / s)
        object.__setattr__(self, "lambda_off", self.lambda_off / s)


def focal_elem(p_hat: float, y: int, alpha: float, gamma: float,
               eps: float = 1e-8) -> float:
    """Reference single-cell focal term in probability space."""
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")
    return (-alpha * y * (1.0 - p_hat) ** gamma * math.log(p_hat + eps)
            - (1.0 - alpha) * (1 - y) * p_hat ** gamma
            * math.log(1.0 - p_hat + eps))


def _check_prediction_shapes(pred, targets) -> tuple:
    shape = pred.shape
    if len(shape) != 5 or shape[2] != 2:
        raise ValueError(f"expected [B, T, 2, H, W], got {shape}")
    if np.shape(targets) != shape:
        raise ValueError(
            f"target shape {np.shape(targets)} != prediction shape {shape}")
    return shape


def polarity_focal(logits: Tensor, targets: np.ndarray,
                   cfg: LossConfig) -> Tensor:
    """Channel-weighted focal loss from logits; targets must be binary."""
    logits = as_tensor(logits)
    b, t_out, _, h, w = _check_prediction_shapes(logits, targets)
    fmap = ops.focal_loss_map(logits, np.asarray(targets), cfg.alpha,
                              cfg.gamma, cfg.eps)
    lam = np.array([cfg.lambda_on, cfg.lambda_off], dtype=logits.dtype)
    weights = lam.reshape(1, 1, 2, 1, 1) / (b * t_out * h * w)
    return ops.weighted_sum(fmap, weights)


def ddr_loss(probs: Tensor, targets: np.ndarray, tau: float,
             eps: float = 1e-8) -> Tensor:
    """KL between temperature-softmaxed inter-frame differences."""
    probs = as_tensor(probs)
    b, t_out, _, h, w = _check_prediction_shapes(probs, targets)
    if t_out < 2:
        raise ValueError(f"ddr_loss needs T_out >= 2, got {t_out}")
    rows = b * (t_out - 1)

    diff_pred = ops.reshape(ops.frame_diff(probs), (rows, 2 * h * w))
    p = ops.softmax_temp(diff_pred, tau)

    # in the probabilities' dtype, without a float copy of the targets
    tgt = np.asarray(targets)
    diff_tgt = np.subtract(tgt[:, 1:], tgt[:, :-1], dtype=probs.dtype)
    diff_tgt = diff_tgt.reshape(rows, 2 * h * w)
    q = ops.softmax_temp(Tensor(diff_tgt), tau)

    kl = ops.kl_div(p, q, eps=eps)
    return ops.scale(kl, 1.0 / rows)


def total_loss(logits: Tensor, targets: np.ndarray, cfg: LossConfig) -> Tensor:
    """polarity_focal + alpha_ddr * ddr_loss; the regularizer is skipped
    entirely at alpha_ddr == 0 so the two modes agree bit for bit."""
    logits = as_tensor(logits)
    pol = polarity_focal(logits, targets, cfg)
    if cfg.alpha_ddr == 0.0:
        return pol
    probs = ops.sigmoid(logits)
    reg = ddr_loss(probs, targets, cfg.tau, eps=cfg.eps)
    return ops.add(pol, ops.scale(reg, cfg.alpha_ddr))
