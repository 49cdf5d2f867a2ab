"""Dense tensors, trainable parameters, and the reverse-mode tape.

The engine is define-by-run: while a thread has a Tape active, every
differentiable op that thread runs appends one backward closure to it.
Execution order is a topological order by construction, so Tape.backward
simply walks the closures in reverse over a map from tensor to gradient:
each pops its output's gradient and adds into its inputs'.

A tape is single-use. Backward pops each node as it runs it, so the
closure and whatever it saved are freed at once, and returns the map,
which then holds only leaves, the Parameters and the tensors the caller
created with requires_grad=True; no op output ever is a leaf. No tensor
stores a gradient, so two tapes, on any threads, never share one.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


class _Tapes(threading.local):
    """Each thread's stack of active tapes; its ops record onto the
    innermost one, so another thread's ops never land on it."""

    def __init__(self):
        self.stack: list["Tape"] = []


_tapes = _Tapes()


class Tensor:
    """A dense n-dimensional float array; requires_grad asks a tape to
    record the ops that use it."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """A named leaf tensor updated by the optimizer; always tracks gradients."""

    __slots__ = ("name",)

    def __init__(self, data: ArrayLike, name: str, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name}, shape={self.data.shape})"


class Tape:
    """Ordered record of executed ops; replayed backwards for gradients.

    Usable as a context manager:

        with Tape() as tape:
            loss = total_loss(model.forward(x, training=True, rng=rng), y, cfg)
        grads = tape.backward(loss)  # grads[param] is d loss / d param

    Single-use: backward frees every node as it runs it, so afterwards the
    tape is empty. A second backward raises ValueError.
    """

    __slots__ = ("_nodes", "_consumed", "grads")

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[], None]]] = []
        self._consumed = False
        self.grads: dict[Tensor, np.ndarray] = {}

    def record(self, out: Tensor, backward_fn: Callable[[], None]) -> None:
        self._nodes.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _tapes.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tapes.stack.pop()
        assert popped is self, "tapes must unwind in LIFO order"

    def backward(self, output: Tensor) -> dict[Tensor, np.ndarray]:
        """Seed d(output)/d(output) = 1, propagate in reverse order, popping
        each node as it runs, and return the map from each leaf that
        output depends on to d(output)/d(leaf)."""
        if self._consumed:
            raise ValueError("backward() already ran on this tape")
        if output.data.size != 1:
            raise ValueError(
                f"backward() needs a scalar output, got shape {output.data.shape}")
        self._consumed = True
        grads = self.grads
        grads[output] = np.ones_like(output.data)
        nodes = self._nodes
        while nodes:
            out, fn = nodes.pop()
            if out in grads:
                fn()
        return grads


def active_tape() -> Optional[Tape]:
    """The innermost tape this thread has entered, or None."""
    stack = _tapes.stack
    return stack[-1] if stack else None


def as_tensor(x: Union[Tensor, ArrayLike], dtype=None) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, dtype=dtype)
