"""Evaluation protocol for occurrence-map forecasts.

Predicted probabilities are binarized per frame and per polarity channel
with an automatically selected threshold (maximum between-class variance
over a 256-bin histogram). Overlap metrics are accumulated as global
intersection/union counts over an entire evaluation set rather than
averaged per frame; aIoU scores the polarity-agnostic mask formed by
OR-ing the two channels. MSE and windowed SSIM report pixel fidelity.

SSIM's Gaussian means run as two passes of the same along-H filter, the
second on a transposed copy of the first's output, so every window line is
one BLAS gemv. A 0/1 image (every target, every persistence forecast) is
its own square, so its filtered square is its filtered mean and is not
computed again. Scores agree with a nested-loop reference within 1e-12.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .util import is_binary

_METRIC_KEYS = ("iou_on", "iou_off", "miou", "aiou", "mse", "ssim")

_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2
# Normalised 1-D Gaussian; its outer product with itself is the SSIM window.
_SSIM_GAUSS = np.exp(-(np.arange(_SSIM_WINDOW) - _SSIM_WINDOW // 2) ** 2
                     / (2.0 * _SSIM_SIGMA ** 2))
_SSIM_GAUSS /= _SSIM_GAUSS.sum()


def otsu_threshold(probs: np.ndarray) -> float:
    """Histogram threshold maximizing between-class variance.

    Builds a 256-bin histogram over [0, 1] and scans the 255 interior bin
    boundaries; the returned value is the boundary k/256 whose split
    maximizes w0*w1*(mu0-mu1)^2, ties resolved toward the lower boundary.
    An image occupying a single bin has no valid split and maps to 0.5.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {probs.shape}")
    flat = probs.reshape(-1)
    if not bool(np.all((flat >= 0.0) & (flat <= 1.0))):
        raise ValueError("probabilities must lie in [0, 1]")

    # bin k holds [k/256, (k+1)/256), bin 255 also 1.0; 256*p is exact
    bins = (flat * 256.0).astype(np.intp)
    np.minimum(bins, 255, out=bins)
    hist = np.bincount(bins, minlength=256).astype(np.float64)
    levels = (np.arange(256) + 0.5) / 256.0

    mass = np.cumsum(hist)
    first = np.cumsum(hist * levels)
    total = mass[-1]
    w0 = mass[:-1]
    w1 = total - w0
    valid = (w0 > 0) & (w1 > 0)
    if not valid.any():
        return 0.5
    mu0 = first[:-1] / np.where(w0 > 0, w0, 1.0)
    mu1 = (first[-1] - first[:-1]) / np.where(w1 > 0, w1, 1.0)
    var = np.where(valid, (w0 / total) * (w1 / total) * (mu0 - mu1) ** 2, -1.0)
    return (int(np.argmax(var)) + 1) / 256.0


def binarize(probs: np.ndarray) -> np.ndarray:
    """Threshold a [T,2,H,W] probability tensor into {0,1} masks.

    The threshold is computed independently for every frame and polarity
    channel and applied with >=.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 4 or probs.shape[1] != 2:
        raise ValueError(f"expected [T,2,H,W] probabilities, got {probs.shape}")
    out = np.zeros(probs.shape, dtype=np.uint8)
    for t in range(probs.shape[0]):
        for c in range(2):
            out[t, c] = probs[t, c] >= otsu_threshold(probs[t, c])
    return out


def mse(pred: np.ndarray, gt: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return float(np.mean((pred - gt) ** 2))


def _gaussian_mean(img: np.ndarray) -> np.ndarray:
    """Local means under the 11x11 Gaussian window, transposed: [W-10, H-10].

    Each pass filters along axis 0, where a window view has one unit
    stride, so numpy hands every line to BLAS gemv; the transposed copy in
    between turns W into axis 0 for the second pass.
    """
    along_h = sliding_window_view(img, _SSIM_WINDOW, axis=0) @ _SSIM_GAUSS
    along_w = sliding_window_view(along_h.T.copy(), _SSIM_WINDOW, axis=0)
    return along_w @ _SSIM_GAUSS


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean windowed SSIM between two [H,W] images on unit range.

    11x11 Gaussian window (sigma 1.5), C1=0.01^2, C2=0.03^2; windows are
    taken fully inside the image, so both sides must be at least 11 wide.
    The window is separable, so each local mean is two passes of the
    normalised 1-D Gaussian, along H on the image and then along H again on
    a transposed copy, each line one BLAS gemv. A 0/1 image (util.is_binary)
    equals its own square, so it reuses its local mean as the mean of its
    square instead of squaring and filtering again, which changes no bits.
    The score agrees with a nested-loop evaluation of the same formula
    within 1e-12.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"expected matching 2D images, got {x.shape} vs {y.shape}")
    if min(x.shape) < _SSIM_WINDOW:
        raise ValueError(
            f"image {x.shape} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")

    mu_x = _gaussian_mean(x)
    mu_y = _gaussian_mean(y)
    mean_xx = mu_x if is_binary(x) else _gaussian_mean(x * x)
    mean_yy = mu_y if is_binary(y) else _gaussian_mean(y * y)
    mean_xy = _gaussian_mean(x * y)
    mu_xx, mu_yy, mu_xy = mu_x * mu_x, mu_y * mu_y, mu_x * mu_y
    # (2 mu_x mu_y + C1)(2 cov + C2) / ((mu_x^2 + mu_y^2 + C1)(var_x + var_y
    # + C2)), built in place in the order the formula reads (2 (a b) equals
    # (2 a) b exactly); mean_xx may be mu_x, so it is written after mu_xx
    mean_xy -= mu_xy
    mean_xy *= 2
    mean_xy += _SSIM_C2
    mu_xy *= 2
    mu_xy += _SSIM_C1
    mu_xy *= mean_xy
    mean_xx -= mu_xx
    mean_yy -= mu_yy
    mu_xx += mu_yy
    mu_xx += _SSIM_C1
    mean_xx += mean_yy
    mean_xx += _SSIM_C2
    mu_xx *= mean_xx
    mu_xy /= mu_xx
    return float(mu_xy.mean())


def _check_binary_pair(pred_bin: np.ndarray, gt: np.ndarray) -> None:
    if pred_bin.ndim != 4 or pred_bin.shape[1] != 2:
        raise ValueError(f"expected [T,2,H,W] masks, got {pred_bin.shape}")
    if pred_bin.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred_bin.shape} vs {gt.shape}")
    for name, arr in (("prediction", pred_bin), ("target", gt)):
        if not is_binary(arr):
            raise ValueError(f"{name} mask must be binary")


class MetricAccumulator:
    """Streaming counts for globally accumulated overlap and fidelity scores.

    Intersection/union counters are unsigned 64-bit and indexed
    [ON, OFF, polarity-agnostic].
    """

    def __init__(self) -> None:
        self.inter = np.zeros(3, dtype=np.uint64)
        self.union = np.zeros(3, dtype=np.uint64)
        self.mse_sum = 0.0
        self.pixel_count = 0
        self.ssim_sum = 0.0
        self.frame_count = 0

    def update(self, pred_bin: np.ndarray, gt: np.ndarray,
               probs: np.ndarray | None = None) -> None:
        """Fold one [T,2,H,W] prediction into the counters.

        pred_bin and gt must be binary; passing the pre-threshold
        probabilities as well accumulates MSE and SSIM.
        """
        pred_bin = np.asarray(pred_bin)
        gt = np.asarray(gt)
        _check_binary_pair(pred_bin, gt)
        p = pred_bin.astype(bool)
        g = gt.astype(bool)
        pa = p.any(axis=1)
        ga = g.any(axis=1)
        self.inter += np.array(
            [np.count_nonzero(p[:, 0] & g[:, 0]),
             np.count_nonzero(p[:, 1] & g[:, 1]),
             np.count_nonzero(pa & ga)], dtype=np.uint64)
        self.union += np.array(
            [np.count_nonzero(p[:, 0] | g[:, 0]),
             np.count_nonzero(p[:, 1] | g[:, 1]),
             np.count_nonzero(pa | ga)], dtype=np.uint64)

        if probs is not None:
            probs = np.asarray(probs, dtype=np.float64)
            if probs.shape != gt.shape:
                raise ValueError(
                    f"shape mismatch {probs.shape} vs {gt.shape}")
            gf = gt.astype(np.float64)
            self.mse_sum += float(((probs - gf) ** 2).sum())
            self.pixel_count += probs.size
            for t in range(probs.shape[0]):
                self.ssim_sum += float(np.mean(
                    [ssim(probs[t, c], gf[t, c]) for c in range(2)]))
            self.frame_count += probs.shape[0]

    def finalize(self) -> dict:
        """Scores from the accumulated counts.

        A channel whose union is empty (nothing predicted, nothing present)
        scores 1 so that all-quiet stretches do not drag global numbers.
        """
        def ratio(i, u):
            return 1.0 if u == 0 else float(i) / float(u)

        iou_on = ratio(self.inter[0], self.union[0])
        iou_off = ratio(self.inter[1], self.union[1])
        return {
            "iou_on": iou_on,
            "iou_off": iou_off,
            "miou": 0.5 * (iou_on + iou_off),
            "aiou": ratio(self.inter[2], self.union[2]),
            "mse": self.mse_sum / self.pixel_count if self.pixel_count else 0.0,
            "ssim": self.ssim_sum / self.frame_count if self.frame_count else 1.0,
        }


def format_record(record: dict) -> str:
    """Single machine-readable key=value line: every key in the record's
    order, floats to 6 decimals."""
    return " ".join(f"{key}={value:.6f}" if isinstance(value, float)
                    else f"{key}={value}" for key, value in record.items())


def format_table(metrics: dict) -> str:
    width = max(len(k) for k in _METRIC_KEYS)
    return "\n".join(f"{key:>{width}}  {metrics[key]:.4f}"
                     for key in _METRIC_KEYS)
