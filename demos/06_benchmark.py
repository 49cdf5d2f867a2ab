"""Latency and size of the full configuration on this machine's CPU."""

import numpy as np

from etide.model import ModelConfig, count_params, init_params
from etide.training import benchmark, estimate_activation_bytes

cfg = ModelConfig()
model = init_params(cfg, seed=0)

widths = {}
for p in model.parameters():
    group = p.name.split(".")[0]
    widths[group] = widths.get(group, 0) + p.data.size
print("parameters by group:")
for group, n in widths.items():
    print(f"  {group:8s} {n:8d}")
print(f"  {'total':8s} {count_params(model):8d}")

print(f"\nactivations a recording (training) forward keeps at batch 1, "
      f"measured: {estimate_activation_bytes(cfg) / 1e6:.0f} MB")

record = benchmark(model, iters=20, warmup=3, seed=0)
print(f"\n{cfg.t_in}->{cfg.t_out} forward at {cfg.height}x{cfg.width}, "
      f"batch 1, single pass:")
print(f"  median {record['median_ms']:.1f} ms, p95 {record['p95_ms']:.1f} ms, "
      f"traced peak {record['traced_peak_bytes'] / 1e6:.1f} MB")
