"""Layer spans around etide's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a timing wrapper in
every etide module that looks it up by name, and restores the originals on
`uninstall()`. Spans are kept in memory: name, layer, start, end, self time
(the span minus its child spans), the span that caused it and the id of the
benchmark operation it belongs to. `per_layer_metrics()` folds the spans of
the traced operations into the per-layer figures; `write_spans()` writes
them out as JSON lines when the run ends.

Layers are named after etide's modules: `ops.*` (numerics.ops forward and
the backward closures they record), `tape.*` (numerics.tensor), `model.*`,
`losses.*`, `training.*`, `metrics.*` and `events.*`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
import tracemalloc

MB = float(2 ** 20)

# Ops reported one by one; every other op of etide.numerics.ops is summed
# into ops.other.
OP_NAMES = ("conv2d", "conv2d_depthwise", "conv2d_pointwise", "gelu",
            "layer_norm_channels", "upsample_nearest2", "sigmoid",
            "gated_product", "masked_mean_pool", "focal_loss_map",
            "softmax_temp", "kl_div")
# Parameter-name prefixes; "other" takes ops that run before any parameter
# of the current forward pass has been seen.
PREFIXES = ("enc0", "enc1", "blk0", "blk1", "blk2", "blk3", "dec0", "dec1",
            "head", "loss", "other")

# (module, function, span name) for the traced module-level functions.
_FUNCTIONS = (
    ("etide.losses", "total_loss", "losses.total_loss"),
    ("etide.training", "predict", "training.predict"),
    ("etide.training", "adam_step", "training.adam_step"),
    ("etide.training", "rollout_eval", "training.rollout_eval"),
    ("etide.metrics", "binarize", "metrics.binarize"),
    ("etide.metrics", "otsu_threshold", "metrics.otsu"),
    ("etide.metrics", "ssim", "metrics.ssim"),
    ("etide.events", "read_ocm", "events.read_ocm"),
    ("etide.events", "write_ocm", "events.write_ocm"),
    ("etide.events", "synth_scene", "events.synth_scene"),
    ("etide.events", "bin_events", "events.bin_events"),
    ("etide.model", "load_checkpoint", "model.load_checkpoint"),
    ("etide.model", "save_checkpoint", "model.save_checkpoint"),
)
# (module, class, method, span name) for the traced methods.
_METHODS = (
    ("etide.numerics.tensor", "Tape", "backward", "tape.backward"),
    ("etide.model", "TideModel", "encode", "model.encode"),
    ("etide.model", "TideModel", "tide_block", "model.tide_block"),
    ("etide.model", "TideModel", "decode", "model.decode"),
    ("etide.metrics", "MetricAccumulator", "update", "metrics.update"),
)

ROOT = "op"


class Span:
    __slots__ = ("name", "layer", "op", "parent", "start", "end", "child",
                 "nbytes")

    def __init__(self, name, layer, op, parent, start):
        self.name = name
        self.layer = layer
        self.op = op
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0
        self.nbytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        # set while tracemalloc runs: operations then record their peaks
        self.memory = False
        self.spans: list[Span] = []
        self.op = 0  # 0 while setting up, then one id per operation
        self.op_units: dict[int, float] = {}
        self.op_peak: dict[int, int] = {}
        self.op_live: dict[int, int] = {}
        self.records: dict[int, int] = {}  # Tape.record calls per op id
        self._open: list[int] = []
        self._prefix = "other"
        self._loss_depth = 0
        self._mem_base = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, layer: str | None = None) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, layer, self.op, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += span.end - span.start

    @contextlib.contextmanager
    def operation(self, units: float):
        """One benchmark operation, worth `units` units of work."""
        self.op += 1
        self.op_units[self.op] = units
        self._prefix = "other"
        if self.memory:
            tracemalloc.reset_peak()
            self._mem_base = tracemalloc.get_traced_memory()[0]
        span = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(span)
            if self.memory:
                self.op_peak[self.op] = (tracemalloc.get_traced_memory()[1]
                                         - self._mem_base)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        """Span around `fn`; `before(args)` runs first, `after(span, args)`
        runs once the span has closed, also when `fn` raised."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)
                if after is not None:
                    after(span, args)
        return traced

    def _wrap_op(self, fn, op_name):
        from etide.numerics import Parameter
        tracer = self
        name = "ops." + op_name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._loss_depth:
                tracer._prefix = "loss"
            else:
                for a in args:
                    if isinstance(a, Parameter):
                        tracer._prefix = a.name.split(".", 1)[0]
                        break
            span = tracer._enter(name, tracer._prefix)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            data = getattr(out, "data", None)
            span.nbytes = getattr(data, "nbytes", 0)
            return out
        return traced

    # hooks of the spans that record more than their time

    def _enter_loss(self, args) -> None:
        self._loss_depth += 1

    def _exit_loss(self, span, args) -> None:
        self._loss_depth -= 1

    def _start_forward(self, args) -> None:
        self._prefix = "other"  # encode starts a new forward pass

    def _file_size(self, span, args) -> None:
        span.nbytes = os.path.getsize(args[0])

    def _live_after_backward(self, span, args) -> None:
        if self.memory and self.op:
            live = tracemalloc.get_traced_memory()[0] - self._mem_base
            self.op_live[self.op] = max(self.op_live.get(self.op, 0), live)

    def _wrap_record(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(tape, out, backward_fn):
            tracer.records[tracer.op] = tracer.records.get(tracer.op, 0) + 1
            caller = tracer.spans[tracer._open[-1]] if tracer._open else None
            if caller is not None and caller.name.startswith("ops."):
                name, layer = "bwd." + caller.name[4:], caller.layer
            else:
                name, layer = "bwd.other", tracer._prefix

            def timed_backward():
                span = tracer._enter(name, layer)
                try:
                    backward_fn()
                finally:
                    tracer._exit(span)
            return fn(tape, out, timed_backward)
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        import etide.cli  # noqa: F401  (every module that looks names up)
        import etide.numerics.ops as ops

        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, fn in vars(ops).items():
            if (inspect.isfunction(fn) and fn.__module__ == ops.__name__
                    and not name.startswith("_")):
                self._patch_everywhere(fn, self._wrap_op(fn, name))
        hooks = {
            "losses.total_loss": (self._enter_loss, self._exit_loss),
            "events.read_ocm": (None, self._file_size),
            "model.encode": (self._start_forward, None),
            "tape.backward": (None, self._live_after_backward),
        }
        for module, attr, name in _FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            self._patch_everywhere(fn, self._wrap(fn, name,
                                                  *hooks.get(name, ())))
        for module, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[module], cls_name)
            fn = cls.__dict__[attr]
            self._patch(cls, attr, self._wrap(fn, name, *hooks.get(name, ())))
        tape_cls = sys.modules["etide.numerics.tensor"].Tape
        self._patch(tape_cls, "record",
                    self._wrap_record(tape_cls.__dict__["record"]))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, wrapper) -> None:
        """Replace `fn` under every name an etide module binds it to."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "etide"
                                      or mod_name.startswith("etide.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON list per span: id, parent, op, name, layer, start, end,
        self time (seconds) and output bytes."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "layer",
                                 "start_s", "end_s", "self_s", "bytes"])
                     + "\n")
            t0 = self.spans[0].start if self.spans else 0.0
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.parent, s.op, s.name, s.layer,
                                     round(s.start - t0, 9),
                                     round(s.end - t0, 9),
                                     round(s.self_time, 9), s.nbytes]) + "\n")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-unit figures over every traced operation (op id >= 1); set-up
    figures (`events.synth_ms`, `events.write_ocm_ms`) over op id 0."""
    units = sum(tracer.op_units.values())
    if units <= 0:
        raise ValueError("no traced operation")
    out: dict[str, tuple[float, str]] = {}
    for op in OP_NAMES + ("other",):
        for key, unit in (("fwd_ms", "ms"), ("bwd_ms", "ms"),
                          ("calls", "count"), ("out_mb", "MB")):
            out[f"ops.{op}.{key}"] = [0.0, unit]
    for prefix in PREFIXES:
        out[f"layer.{prefix}.fwd_ms"] = [0.0, "ms"]
        out[f"layer.{prefix}.bwd_ms"] = [0.0, "ms"]

    inclusive = {}  # span name -> [seconds, calls] over traced operations
    setup = {}
    root_total = root_self = 0.0
    for s in tracer.spans:
        if s.op == 0:
            acc = setup.setdefault(s.name, [0.0, 0])
            acc[0] += s.duration
            acc[1] += 1
            continue
        if s.name == ROOT:
            root_total += s.duration
            root_self += s.self_time
            continue
        acc = inclusive.setdefault(s.name, [0.0, 0, 0])
        acc[0] += s.duration
        acc[1] += 1
        acc[2] += s.nbytes
        if s.name.startswith("ops."):
            op = s.name[4:] if s.name[4:] in OP_NAMES else "other"
            out[f"ops.{op}.fwd_ms"][0] += _ms(s.self_time)
            out[f"ops.{op}.calls"][0] += 1
            out[f"ops.{op}.out_mb"][0] += s.nbytes / MB
            out[f"layer.{_prefix(s.layer)}.fwd_ms"][0] += _ms(s.self_time)
        elif s.name.startswith("bwd."):
            op = s.name[4:] if s.name[4:] in OP_NAMES else "other"
            out[f"ops.{op}.bwd_ms"][0] += _ms(s.self_time)
            out[f"layer.{_prefix(s.layer)}.bwd_ms"][0] += _ms(s.self_time)

    def incl_ms(name):
        return _ms(inclusive.get(name, (0.0,))[0])

    def calls(name):
        return float(inclusive.get(name, (0.0, 0))[1])

    out.update({
        "tape.backward_ms": [incl_ms("tape.backward"), "ms"],
        "model.encode_ms": [incl_ms("model.encode"), "ms"],
        "model.tide_block_ms": [incl_ms("model.tide_block"), "ms"],
        "model.decode_ms": [incl_ms("model.decode"), "ms"],
        "model.load_checkpoint_ms": [incl_ms("model.load_checkpoint"), "ms"],
        "model.save_checkpoint_ms": [incl_ms("model.save_checkpoint"), "ms"],
        "losses.total_loss_ms": [incl_ms("losses.total_loss"), "ms"],
        "training.predict_ms": [incl_ms("training.predict"), "ms"],
        "training.predict.calls": [calls("training.predict"), "count"],
        "training.adam_step_ms": [incl_ms("training.adam_step"), "ms"],
        "training.rollout_eval_ms": [incl_ms("training.rollout_eval"), "ms"],
        "metrics.binarize_ms": [incl_ms("metrics.binarize"), "ms"],
        "metrics.otsu.calls": [calls("metrics.otsu"), "count"],
        "metrics.ssim_ms": [incl_ms("metrics.ssim"), "ms"],
        "metrics.ssim.calls": [calls("metrics.ssim"), "count"],
        "metrics.update_ms": [incl_ms("metrics.update"), "ms"],
        "events.read_ocm_ms": [incl_ms("events.read_ocm"), "ms"],
        "events.read_ocm_mb": [
            inclusive.get("events.read_ocm", (0, 0, 0))[2] / MB, "MB"],
    })
    # closures recorded, whether or not backward ran them
    out["tape.nodes"] = [float(sum(n for op, n in tracer.records.items()
                                   if op > 0)), "count"]
    for key, value in out.items():
        value[0] /= units
    # set-up totals, once per set-up rather than per unit
    out["events.synth_ms"] = [
        _ms(setup.get("events.synth_scene", (0.0,))[0]
            + setup.get("events.bin_events", (0.0,))[0]), "ms"]
    out["events.write_ocm_ms"] = [
        _ms(setup.get("events.write_ocm", (0.0,))[0]), "ms"]
    out["mem.peak_mb"] = [max(tracer.op_peak.values(), default=0) / MB, "MB"]
    out["mem.live_after_backward_mb"] = [
        max(tracer.op_live.values(), default=0) / MB, "MB"]
    out["trace.unattributed_frac"] = [
        root_self / root_total if root_total else 0.0, "frac"]
    return {k: (float(v), u) for k, (v, u) in out.items()}


def _prefix(layer) -> str:
    return layer if layer in PREFIXES else "other"
