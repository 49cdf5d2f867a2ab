"""The forecaster network.

A shared-weight strided-conv encoder turns each input frame into a small
feature map, time is packed into channels (D = T_in * C_s), a stack of
mixing blocks interacts the packed tensor with purely 2-D operators, and an
upsampling decoder emits T_out * 2 logit maps in one pass. Every encoder
and decoder stage is one ops.conv_ln_gelu call (conv -> LN -> GELU; the
decoder's conv runs on the nearest-2x upsample of its input). The
encoder computes only its active windows, forward and backward: an enc0
window that holds no event gives one constant vector, gelu(LN(bias)), so
the stem computes the windows with events and hands enc1 its active set
(ops.ActiveSet); enc1 computes the windows that read one of them or the
zero padding, and its other windows share one background vector too.
Blocks are pre-norm residual:

    U' = U  + droppath(core(LN(U)))
    out = U' + droppath(ffn(LN(U')))

where core = channel_gate(U_n) * pointwise(dw_dilated(dw(U_n))) * (1 + U_n),
the gate being a squeeze MLP fed by an activity-masked spatial mean.

The forward has split points (numerics.parallel.split): the encoder's
frames, each block's per-location tail LN -> ffn -> residual, and the head.
parallel's module docstring says when a helper thread computes one half
(in training.predict), where split cuts and why the halves keep the bits.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .numerics import Parameter, Tensor, as_tensor, ops, parallel
from .util import atomic_write_bytes, config_from_text, config_to_text

ETW_MAGIC = b"ETW1"
ETW_VERSION = 1


class CheckpointError(Exception):
    """Malformed or inconsistent ETW1 checkpoint."""


@dataclass(frozen=True)
class ModelConfig:
    t_in: int = 10
    t_out: int = 10
    height: int = 128
    width: int = 128
    c_step: int = 8           # encoder channels per time step
    n_blocks: int = 4
    k_resample: int = 3       # encoder/decoder conv kernel
    k_mix1: int = 5           # first depthwise mixing kernel
    k_mix2: int = 7           # dilated depthwise mixing kernel
    mix_dilation: int = 3
    mask_quantile: float = 0.98
    gate_reduction: int = 16
    ffn_expansion: int = 2
    droppath_rate: float = 0.2
    stages: int = 2           # stride-2 encoder convs / decoder upsamples
    enc_widths: tuple = (32,)  # hidden widths before the c_step projection
    dec_widths: tuple = (160, 48)
    use_activity_mask: bool = True        # off: global average pooling
    use_multiplicative_residual: bool = True  # off: drop the (1 + U) factor

    def __post_init__(self):
        object.__setattr__(self, "enc_widths", tuple(int(v) for v in self.enc_widths))
        object.__setattr__(self, "dec_widths", tuple(int(v) for v in self.dec_widths))
        for name in ("t_in", "t_out", "c_step", "n_blocks", "mix_dilation",
                     "gate_reduction", "ffn_expansion", "stages"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        for name in ("enc_widths", "dec_widths"):
            value = getattr(self, name)
            if min(value, default=1) < 1:
                raise ValueError(f"{name} entries must be >= 1, got {value}")
        div = 2 ** self.stages
        for name in ("height", "width"):
            value = getattr(self, name)
            if value < 1 or value % div:
                raise ValueError(f"{name} must be positive and divisible by "
                                 f"2^stages = {div}, got {value}")
        for name in ("k_resample", "k_mix1", "k_mix2"):
            k = getattr(self, name)
            if k % 2 == 0 or k < 1:
                raise ValueError(f"{name} must be odd and >= 1, got {k}")
        if len(self.enc_widths) != self.stages - 1:
            raise ValueError(
                f"enc_widths needs {self.stages - 1} entries, "
                f"got {len(self.enc_widths)}")
        if len(self.dec_widths) != self.stages:
            raise ValueError(
                f"dec_widths needs {self.stages} entries, "
                f"got {len(self.dec_widths)}")
        if not 0.0 <= self.droppath_rate < 1.0:
            raise ValueError("droppath_rate must be in [0, 1)")
        if not 0.0 < self.mask_quantile <= 1.0:
            raise ValueError("mask_quantile must be in (0, 1]")

    @property
    def packed_channels(self) -> int:
        return self.t_in * self.c_step

    @property
    def gate_hidden(self) -> int:
        return max(1, math.ceil(self.packed_channels / self.gate_reduction))

    @property
    def grid(self) -> tuple[int, int]:
        f = 2 ** self.stages
        return self.height // f, self.width // f


def pack_time(e: Tensor, t_in: int) -> Tensor:
    """[B*T, C, H', W'] -> [B, T*C, H', W']; step t occupies channel block
    [t*C, (t+1)*C)."""
    bt, c, h, w = e.shape
    if bt % t_in:
        raise ValueError(f"pack_time: leading dim {bt} not divisible by {t_in}")
    return ops.reshape(e, (bt // t_in, t_in * c, h, w))


def unpack_time(z: Tensor, t_in: int) -> Tensor:
    """Exact inverse of pack_time."""
    b, d, h, w = z.shape
    if d % t_in:
        raise ValueError(f"unpack_time: channel dim {d} not divisible by {t_in}")
    return ops.reshape(z, (b * t_in, d // t_in, h, w))


class TideModel:
    """Parameter container plus the forward computation."""

    def __init__(self, config: ModelConfig, params: dict[str, Parameter]):
        self.config = config
        self.params = params

    # -- parameter plumbing -------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def __getitem__(self, name: str) -> Parameter:
        return self.params[name]

    @property
    def dtype(self):
        return next(iter(self.params.values())).dtype

    # -- forward ------------------------------------------------------------

    def forward(self, x, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> Tensor:
        """[B, T_in, 2, H, W] occurrence maps -> [B, T_out, 2, H, W] logits."""
        x = as_tensor(x)
        cfg = self.config
        expected = (cfg.t_in, 2, cfg.height, cfg.width)
        if x.data.ndim != 5 or x.shape[1:] != expected:
            raise ValueError(
                f"forward: input shape {x.shape} != [B, {cfg.t_in}, 2, "
                f"{cfg.height}, {cfg.width}]")
        e = self.encode(x)
        z = pack_time(e, cfg.t_in)
        for b in range(cfg.n_blocks):
            z = self.tide_block(z, b, training=training, rng=rng)
        return self.decode(z)

    def encode(self, x: Tensor) -> Tensor:
        """Shared-weight frame encoder; every time step sees the same convs."""
        cfg = self.config
        b = x.shape[0]
        h = ops.reshape(x, (b * cfg.t_in, 2, cfg.height, cfg.width))
        return parallel.split(self._encode_frames, h, axis=0)

    def _encode_frames(self, h: Tensor) -> Tensor:
        # a stage that feeds another hands it its active set
        last = self.config.stages - 1
        for i in range(self.config.stages):
            h = self._stage(h, f"enc{i}", stride=2, active_set=i < last)
        return h

    def _stage(self, h: Tensor, prefix: str, **kwargs) -> Tensor:
        """One resampling stage, conv -> layer norm -> GELU, as one op."""
        return ops.conv_ln_gelu(h, self[f"{prefix}.conv.w"],
                                self[f"{prefix}.conv.b"],
                                self[f"{prefix}.ln.g"], self[f"{prefix}.ln.b"],
                                padding=(self.config.k_resample - 1) // 2,
                                **kwargs)

    def tide_core(self, un: Tensor, block: int) -> Tensor:
        """Mixing core on the pre-normalized tensor.

        F = pointwise(dw_dilated(dw(un))); the channel gate is a squeeze MLP
        over an activity-masked spatial mean of un; output = g * F * (1 + un).
        The activity threshold (nearest-rank quantile of the per-location
        mean |un|) and the mask are constants to the backward pass.
        """
        cfg = self.config
        p = f"blk{block}"
        a = ops.conv2d(un, self[f"{p}.dw1.w"], padding=(cfg.k_mix1 - 1) // 2)
        a = ops.conv2d(a, self[f"{p}.dw2.w"], dilation=cfg.mix_dilation,
                       padding=cfg.mix_dilation * (cfg.k_mix2 - 1) // 2)
        mixed = ops.conv2d(a, self[f"{p}.pw.w"], self[f"{p}.pw.b"])

        if cfg.use_activity_mask:
            activity = np.abs(un.data).mean(axis=1, keepdims=True)
            mask = np.empty_like(activity)
            for i in range(activity.shape[0]):
                delta = ops.quantile_nearest_rank(activity[i],
                                                  cfg.mask_quantile)
                mask[i] = activity[i] >= delta
        else:
            mask = np.ones((un.shape[0], 1) + un.shape[2:], dtype=un.data.dtype)
        pooled = ops.masked_mean_pool(un, mask)

        hidden = ops.relu(ops.linear(pooled, self[f"{p}.gate1.w"],
                                     self[f"{p}.gate1.b"]))
        gate = ops.sigmoid(ops.linear(hidden, self[f"{p}.gate2.w"],
                                      self[f"{p}.gate2.b"]))
        base = un if cfg.use_multiplicative_residual else None
        return ops.gated_product(gate, mixed, base)

    def tide_block(self, u: Tensor, block: int, training: bool = False,
                   rng: Optional[np.random.Generator] = None) -> Tensor:
        cfg = self.config
        p = f"blk{block}"
        rate = cfg.droppath_rate

        un = ops.layer_norm_channels(u, self[f"{p}.ln1.g"], self[f"{p}.ln1.b"])
        branch = ops.drop_path(self.tide_core(un, block), rate, training, rng)
        u = ops.add(u, branch)
        # the tail is per location: it splits by rows
        tail = partial(self._ffn_tail, block=block, training=training,
                       rng=rng)
        return parallel.split(tail, u, axis=2)

    def _ffn_tail(self, u: Tensor, block: int, training: bool,
                  rng: Optional[np.random.Generator]) -> Tensor:
        """u + droppath(ffn(LN(u)))."""
        p = f"blk{block}"
        un2 = ops.layer_norm_channels(u, self[f"{p}.ln2.g"], self[f"{p}.ln2.b"])
        f = ops.conv2d(un2, self[f"{p}.ffn1.w"], self[f"{p}.ffn1.b"])
        f = ops.gelu(f)
        f = ops.conv2d(f, self[f"{p}.ffn2.w"], self[f"{p}.ffn2.b"])
        return ops.add(u, ops.drop_path(f, self.config.droppath_rate,
                                        training, rng))

    def decode(self, z: Tensor) -> Tensor:
        """Upsample back to full resolution and emit T_out*2 logit maps."""
        cfg = self.config
        h = z
        for j in range(cfg.stages):
            h = self._stage(h, f"dec{j}", upsample=True)
        logits = parallel.split(self._head, h, axis=2)
        b = z.shape[0]
        return ops.reshape(logits, (b, cfg.t_out, 2, cfg.height, cfg.width))

    def _head(self, h: Tensor) -> Tensor:
        return ops.conv2d(h, self["head.w"], self["head.b"])


def _enc_channel_chain(cfg: ModelConfig) -> list[int]:
    return [2, *cfg.enc_widths, cfg.c_step]


def _dec_channel_chain(cfg: ModelConfig) -> list[int]:
    return [cfg.packed_channels, *cfg.dec_widths]


def init_params(config: ModelConfig, seed: int = 0,
                dtype=np.float32) -> TideModel:
    """Deterministic init: fan-in uniform conv/linear weights, zero biases,
    layer norm gamma=1 beta=0."""
    rng = np.random.default_rng(seed)
    params: dict[str, Parameter] = {}

    def make(name, shape, fan_in=None):
        if fan_in is None:
            arr = np.zeros(shape)
        else:
            bound = 1.0 / math.sqrt(fan_in)
            arr = rng.uniform(-bound, bound, size=shape)
        params[name] = Parameter(arr, name, dtype=dtype)

    def conv(name, cout, cin, k):
        make(f"{name}.w", (cout, cin, k, k), fan_in=cin * k * k)
        make(f"{name}.b", (cout,))

    def norm(name, c):
        params[f"{name}.g"] = Parameter(np.ones(c), f"{name}.g", dtype=dtype)
        make(f"{name}.b", (c,))

    k = config.k_resample
    enc = _enc_channel_chain(config)
    for i in range(config.stages):
        conv(f"enc{i}.conv", enc[i + 1], enc[i], k)
        norm(f"enc{i}.ln", enc[i + 1])

    d = config.packed_channels
    hid = config.gate_hidden
    e = config.ffn_expansion
    for b in range(config.n_blocks):
        p = f"blk{b}"
        norm(f"{p}.ln1", d)
        make(f"{p}.dw1.w", (d, 1, config.k_mix1, config.k_mix1),
             fan_in=config.k_mix1 ** 2)
        make(f"{p}.dw2.w", (d, 1, config.k_mix2, config.k_mix2),
             fan_in=config.k_mix2 ** 2)
        conv(f"{p}.pw", d, d, 1)
        make(f"{p}.gate1.w", (hid, d), fan_in=d)
        make(f"{p}.gate1.b", (hid,))
        make(f"{p}.gate2.w", (d, hid), fan_in=hid)
        make(f"{p}.gate2.b", (d,))
        norm(f"{p}.ln2", d)
        conv(f"{p}.ffn1", e * d, d, 1)
        conv(f"{p}.ffn2", d, e * d, 1)

    dec = _dec_channel_chain(config)
    for j in range(config.stages):
        conv(f"dec{j}.conv", dec[j + 1], dec[j], k)
        norm(f"dec{j}.ln", dec[j + 1])
    conv("head", config.t_out * 2, dec[-1], 1)

    return TideModel(config, params)


def count_params(model: TideModel) -> int:
    return sum(p.size for p in model.params.values())


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: TideModel) -> None:
    params = model.parameters()
    buf = bytearray()
    buf += struct.pack("<4sII", ETW_MAGIC, ETW_VERSION, len(params))
    for p in params:
        name = p.name.encode("utf-8")
        buf += struct.pack("<H", len(name)) + name
        buf += struct.pack("<B", p.data.ndim)
        for dim in p.shape:
            buf += struct.pack("<I", dim)
        buf += np.ascontiguousarray(p.data, dtype="<f4").tobytes()
    cfg = config_to_text(model.config).encode("utf-8")
    buf += struct.pack("<I", len(cfg)) + cfg
    atomic_write_bytes(path, bytes(buf))


def load_checkpoint(path, dtype=np.float32) -> TideModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    view = memoryview(raw)
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated reading {what}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    def text(n, what):
        try:
            return bytes(take(n, what)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path}: {what} is not UTF-8 ({exc})") from exc

    magic, version, count = struct.unpack("<4sII", take(12, "header"))
    if magic != ETW_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != ETW_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")

    loaded: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = text(name_len, "name")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        if rank > 32:  # the most dims every supported NumPy allows
            raise CheckpointError(f"{path}: {name} has rank {rank}")
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        # a Python int product: np.prod of uint32 dims can wrap to 0
        data = np.frombuffer(take(4 * math.prod(dims), f"payload of {name}"),
                             dtype="<f4")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: {name} has non-finite values")
        loaded[name] = data.reshape(dims)
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    cfg_text = text(cfg_len, "config")
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")

    try:
        config = config_from_text(ModelConfig, cfg_text)
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad config block: {exc}") from exc

    model = init_params(config, seed=0, dtype=dtype)
    expected = set(model.params)
    if set(loaded) != expected:
        missing = expected - set(loaded)
        extra = set(loaded) - expected
        raise CheckpointError(
            f"{path}: parameter set mismatch (missing {sorted(missing)}, "
            f"unexpected {sorted(extra)})")
    for name, arr in loaded.items():
        p = model.params[name]
        if arr.shape != p.shape:
            raise CheckpointError(
                f"{path}: {name} has shape {arr.shape}, config implies {p.shape}")
        p.data = arr.astype(dtype)
    return model
