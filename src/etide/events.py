"""Event streams, occurrence-map binning, file formats, and scene synthesis.

An event is (t, u, v, p): microsecond timestamp, column, row, and polarity
(+1 brightness increase, -1 decrease). Binning turns a stream into a binary
[T, 2, H, W] occurrence tensor: channel 0 marks pixels with at least one ON
event in the bin, channel 1 the same for OFF. All types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .util import atomic_write_bytes, is_binary

EVT_MAGIC = b"EVT1"
OCM_MAGIC = b"OCM1"
DEFAULT_BIN_US = 33_333  # 30 Hz

_EVT_RECORD = np.dtype([("t", "<u8"), ("u", "<u2"), ("v", "<u2"),
                        ("p", "<i1"), ("pad", "V3")])
assert _EVT_RECORD.itemsize == 16


class FileFormatError(Exception):
    """Malformed or truncated EVT1/OCM1 payload."""


class EventStream:
    """Time-sorted event arrays bound to a sensor geometry."""

    __slots__ = ("width", "height", "t", "u", "v", "p")

    def __init__(self, width: int, height: int, t, u, v, p):
        self.width = int(width)
        self.height = int(height)
        self.t = np.ascontiguousarray(t, dtype=np.uint64)
        self.u = np.ascontiguousarray(u, dtype=np.uint16)
        self.v = np.ascontiguousarray(v, dtype=np.uint16)
        self.p = np.ascontiguousarray(p, dtype=np.int8)
        n = self.t.size
        if not (self.u.size == self.v.size == self.p.size == n):
            raise ValueError("event field arrays must have equal length")
        if self.t.size and np.any(self.t[1:] < self.t[:-1]):
            i = int(np.argmax(self.t[1:] < self.t[:-1])) + 1
            raise ValueError(f"event {i}: timestamps decrease")
        _check_bounds(self.u, self.v, self.width, self.height)
        bad = ~np.isin(self.p, (-1, 1))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"event {i}: polarity must be +1 or -1")

    def __len__(self) -> int:
        return int(self.t.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.width == other.width and self.height == other.height
                and np.array_equal(self.t, other.t)
                and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v)
                and np.array_equal(self.p, other.p))

    def __repr__(self) -> str:
        return (f"EventStream({self.width}x{self.height}, "
                f"{len(self)} events)")


def _check_bounds(u: np.ndarray, v: np.ndarray, width: int, height: int):
    bad_u = u >= width
    if np.any(bad_u):
        i = int(np.argmax(bad_u))
        raise ValueError(
            f"event {i}: u={int(u[i])} out of bounds for sensor width {width}")
    bad_v = v >= height
    if np.any(bad_v):
        i = int(np.argmax(bad_v))
        raise ValueError(
            f"event {i}: v={int(v[i])} out of bounds for sensor height {height}")


@dataclass(frozen=True)
class OccurrenceTensor:
    """Binary occurrence maps [T, 2, H, W]; channel 0 = ON, channel 1 = OFF."""

    frames: np.ndarray
    bin_duration: int
    t0: int = 0

    def __post_init__(self):
        f = self.frames
        if f.ndim != 4 or f.shape[1] != 2:
            raise ValueError(f"frames must be [T, 2, H, W], got {f.shape}")
        if not is_binary(f):
            raise ValueError("frames must be binary, 0 or 1")
        if self.bin_duration <= 0:
            raise ValueError(f"bin_duration must be > 0, got {self.bin_duration}")
        object.__setattr__(self, "frames",
                           np.ascontiguousarray(f, dtype=np.uint8))

    @property
    def t(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[2]

    @property
    def width(self) -> int:
        return self.frames.shape[3]


def bin_events(stream: EventStream, t0: int, bin_duration: int,
               t_count: int) -> OccurrenceTensor:
    """Indicator binning: cell (t, c, v, u) is 1 iff a matching event fired
    in [t0 + t*bin_duration, t0 + (t+1)*bin_duration)."""
    if bin_duration <= 0:
        raise ValueError(f"bin_duration must be > 0, got {bin_duration}")
    if t_count < 1:
        raise ValueError(f"t_count must be >= 1, got {t_count}")
    _check_bounds(stream.u, stream.v, stream.width, stream.height)

    frames = np.zeros((t_count, 2, stream.height, stream.width), dtype=np.uint8)
    t = stream.t
    keep = (t >= np.uint64(t0)) & (t < np.uint64(t0 + t_count * bin_duration))
    if np.any(keep):
        bins = ((t[keep] - np.uint64(t0)) // np.uint64(bin_duration)).astype(np.int64)
        chans = (stream.p[keep] == -1).astype(np.int64)
        frames[bins, chans, stream.v[keep].astype(np.int64),
               stream.u[keep].astype(np.int64)] = 1
    return OccurrenceTensor(frames, bin_duration, t0)


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MovingObject:
    """Axis-aligned rectangle moving at constant velocity: its top-left
    corner at step s is (x + vx*s, y + vy*s)."""

    x: float
    y: float
    width: int
    height: int
    vx: float = 0.0
    vy: float = 0.0

    def position(self, step: int) -> tuple[float, float]:
        return self.x + self.vx * step, self.y + self.vy * step


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    n_bins: int
    objects: tuple[MovingObject, ...]
    bin_duration: int = DEFAULT_BIN_US


def _occupancy(obj: MovingObject, step: int, width: int, height: int
               ) -> np.ndarray:
    px, py = obj.position(step)
    left, top = int(round(px)), int(round(py))
    mask = np.zeros((height, width), dtype=bool)
    y0, y1 = max(top, 0), min(top + obj.height, height)
    x0, x1 = max(left, 0), min(left + obj.width, width)
    if y0 < y1 and x0 < x1:
        mask[y0:y1, x0:x1] = True
    return mask


def synth_scene(spec: SceneSpec, seed: int = 0) -> EventStream:
    """Edge-triggered events from object motion: pixels an object newly
    covers at step s emit ON, pixels it vacates emit OFF. Timestamps land
    uniformly inside bin s so the stream looks asynchronous but bins back
    to the same maps for any seed."""
    rng = np.random.default_rng(seed)
    ts, us, vs, ps = [], [], [], []
    delta = spec.bin_duration
    for obj in spec.objects:
        prev = _occupancy(obj, 0, spec.width, spec.height)
        for step in range(1, spec.n_bins):
            cur = _occupancy(obj, step, spec.width, spec.height)
            for polarity, mask in ((1, cur & ~prev), (-1, prev & ~cur)):
                rows, cols = np.nonzero(mask)
                if rows.size == 0:
                    continue
                base = step * delta
                jitter = rng.integers(0, delta, size=rows.size)
                ts.append(base + jitter)
                us.append(cols)
                vs.append(rows)
                ps.append(np.full(rows.size, polarity, dtype=np.int8))
            prev = cur
    if not ts:
        return EventStream(spec.width, spec.height, [], [], [], [])
    t = np.concatenate(ts).astype(np.uint64)
    u = np.concatenate(us).astype(np.uint16)
    v = np.concatenate(vs).astype(np.uint16)
    p = np.concatenate(ps)
    order = np.argsort(t, kind="stable")
    return EventStream(spec.width, spec.height, t[order], u[order],
                       v[order], p[order])


def random_bar_scene(rng: np.random.Generator, width: int, height: int,
                     n_bins: int, n_objects: tuple[int, int] = (1, 3),
                     bin_duration: int = DEFAULT_BIN_US) -> SceneSpec:
    """Moving-bar scene: long thin rectangles with constant velocities
    crossing the frame, a learnable synthetic forecasting task."""
    objects = []
    for _ in range(int(rng.integers(n_objects[0], n_objects[1] + 1))):
        horizontal = bool(rng.integers(0, 2))
        thickness = int(rng.integers(2, max(3, width // 16)))
        length = int(rng.integers(height // 2, height))
        speed = float(rng.uniform(1.0, 4.0)) * (1 if rng.integers(0, 2) else -1)
        if horizontal:
            w, h = length, thickness
            vx, vy = 0.0, speed
        else:
            w, h = thickness, length
            vx, vy = speed, 0.0
        x = float(rng.uniform(0, width - w))
        y = float(rng.uniform(0, height - h))
        objects.append(MovingObject(x=x, y=y, width=w, height=h, vx=vx, vy=vy))
    return SceneSpec(width=width, height=height, n_bins=n_bins,
                     objects=tuple(objects), bin_duration=bin_duration)


# ---------------------------------------------------------------------------
# file formats (little-endian throughout)
# ---------------------------------------------------------------------------

def write_evt(path, stream: EventStream) -> None:
    arr = np.zeros(len(stream), dtype=_EVT_RECORD)
    arr["t"], arr["u"], arr["v"], arr["p"] = (stream.t, stream.u,
                                              stream.v, stream.p)
    header = struct.pack("<4sHHQ", EVT_MAGIC, stream.width, stream.height,
                         len(stream))
    atomic_write_bytes(path, header + arr.tobytes())


def read_evt(path) -> EventStream:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise FileFormatError(f"{path}: truncated header")
        magic, width, height, count = struct.unpack("<4sHHQ", header)
        if magic != EVT_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        payload = fh.read()
    expected = count * _EVT_RECORD.itemsize
    if len(payload) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} payload bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=_EVT_RECORD)
    try:
        return EventStream(width, height, arr["t"], arr["u"], arr["v"],
                           arr["p"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_ocm(path, x: OccurrenceTensor) -> None:
    t, c, h, w = x.frames.shape
    header = struct.pack("<4sIIIIQQB", OCM_MAGIC, t, c, h, w,
                         x.t0, x.bin_duration, 0)
    atomic_write_bytes(path, header + x.frames.tobytes())


def read_ocm(path) -> OccurrenceTensor:
    header_size = struct.calcsize("<4sIIIIQQB")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) < header_size:
            raise FileFormatError(f"{path}: truncated header")
        magic, t, c, h, w, t0, bin_duration, dtype_code = struct.unpack(
            "<4sIIIIQQB", header)
        if magic != OCM_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if dtype_code != 0:
            raise FileFormatError(f"{path}: unsupported dtype code {dtype_code}")
        if c != 2:
            raise FileFormatError(f"{path}: expected 2 channels, got {c}")
        payload = fh.read()
    expected = t * c * h * w
    if len(payload) != expected:
        raise FileFormatError(
            f"{path}: expected {expected} payload bytes, got {len(payload)}")
    frames = np.frombuffer(payload, dtype=np.uint8).reshape(t, c, h, w)
    try:
        return OccurrenceTensor(frames.copy(), int(bin_duration), int(t0))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
