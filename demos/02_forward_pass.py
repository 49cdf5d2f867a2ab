"""One forward pass at full size, plus a look at what makes the core tick.

The model folds T_in frames into the batch axis for a shared 2-D encoder,
concatenates the per-step features along channels (time-to-channel
packing), runs a stack of mixing blocks at reduced resolution, and decodes
straight to T_out x 2 logit maps — no recurrence, one pass.
"""

import time

import numpy as np

from etide.model import ModelConfig, count_params, init_params
from etide.numerics import Tensor, ops
from etide.training import predict
from etide.util import config_to_text

cfg = ModelConfig()
print(config_to_text(cfg))
model = init_params(cfg, seed=0)
print(f"parameters: {count_params(model)}")

rng = np.random.default_rng(0)
x = (rng.random((1, cfg.t_in, 2, cfg.height, cfg.width)) < 0.02)
x = x.astype(np.float32)

t0 = time.perf_counter()
logits = model.forward(Tensor(x))
dt = time.perf_counter() - t0
print(f"forward: {x.shape} -> {logits.shape} in {dt * 1e3:.0f} ms")

probs = predict(model, x)
print(f"probabilities in [{probs.min():.3f}, {probs.max():.3f}], "
      f"mean {probs.mean():.3f}")

# the two stacked depthwise kernels (5x5 dense, then 7x7 with dilation 3)
# give each location a 23x23 mixing footprint; check it on an impulse
imp = np.zeros((1, 1, 33, 33))
imp[0, 0, 16, 16] = 1.0
h = ops.conv2d(Tensor(imp), Tensor(np.ones((1, 1, 5, 5))), padding=2)
h = ops.conv2d(h, Tensor(np.ones((1, 1, 7, 7))), dilation=3, padding=9)
nz = h.data[0, 0] != 0
ys, xs = np.nonzero(nz)
print(f"impulse footprint: {ys.max() - ys.min() + 1}x"
      f"{xs.max() - xs.min() + 1}, {nz.sum()} taps touched")
