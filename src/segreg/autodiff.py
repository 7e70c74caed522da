"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation executed inside its
``with`` block (define-by-run).  Calling :func:`backward` on a scalar loss
walks the tape once in reverse and accumulates ``grad`` buffers on every
tensor that requires gradients.  Outside a tape, the same operations run as
plain numpy forward computations (inference mode).

Broadcasting is deliberately restricted to scalar-vs-tensor and equal-shape
operands; mixed-shape broadcasts must go through :func:`expand`, which makes
the reduction in the backward pass explicit.

Every differentiable operation puts its output on the tape one way: it
returns ``record_custom(value, requires_grad, backward_fn)``.  The built-in
operations below do, and so do the hot composites elsewhere (the slack
Sinkhorn, feature normalization, the linear layers, the kernel-point
convolution, patch scoring, the straight-through mask, the circle loss),
each a single node with a hand-written backward.  Operations are called as
functions; :class:`Tensor` has no arithmetic operators.  Every tensor, and
every intermediate of a fused node whose overflow could not reach its
output, passes the one finiteness routine :func:`require_finite`.  Every
forward that can overflow on finite inputs (the arithmetic, ``softmax``,
the reductions, and the fused nodes' products) runs under the one policy
:func:`quiet`, numpy's floating-point warnings off, so such an input raises
:class:`NonFiniteError` and not a ``RuntimeWarning``.  The module holds
exactly the tape ops the package records.
Row scatters go through :func:`scatter_add_rows`, one ``np.bincount`` that
adds in input order exactly as ``np.add.at`` does into zeros.  Row gathers
and means run along a :class:`RowMap` of real rows, whose range check is
made when the map is built and whose group sizes are counted once.  The
finite-difference oracle that checks every op's backward lives in
``segreg.gradcheck``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "NonFiniteError",
    "require_finite",
    "quiet",
    "add",
    "mul",
    "div",
    "neg",
    "log",
    "sqrt",
    "softmax",
    "sum_",
    "mean_",
    "expand",
    "reshape",
    "concat",
    "RowMap",
    "gather_rows",
    "scatter_add_rows",
    "scatter_mean",
    "record_custom",
    "accumulate_grad",
]

_ACTIVE_TAPE: "Tape | None" = None


class NonFiniteError(ValueError):
    """Raised when a tensor would hold a NaN or an infinity."""


def require_finite(arr: np.ndarray) -> None:
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise NonFiniteError("tensor data must be finite")


def quiet() -> np.errstate:
    """The float-error policy: numpy warnings off, so a finiteness check
    raises :class:`NonFiniteError` instead.  A fresh context per call, as
    numpy enters one ``np.errstate`` only once."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


class Tensor:
    """A dense float64 array plus gradient metadata."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        require_finite(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed operations; rebuilt per forward pass."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None

    def __len__(self) -> int:
        return len(self.nodes)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` to ``t.grad`` when ``t`` requires a gradient; every backward,
    built-in or fused, accumulates through here."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if g.flags.owndata and g.flags.writeable else g.copy()
    else:
        t.grad = t.grad + g


def record_custom(out_data: np.ndarray, requires_grad: bool, backward_fn) -> Tensor:
    """Wrap an operation's output in a tensor and record it on the active tape.

    The one way a node reaches the tape.  ``backward_fn`` receives the output
    gradient and must call :func:`accumulate_grad` on each differentiable
    input.  Nothing is recorded outside a tape or when no input requires a
    gradient.
    """
    out = Tensor(out_data, requires_grad)
    if _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE.nodes.append((out, backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the active tape.

    Populates ``grad`` on every requires_grad tensor reachable from the loss
    and consumes the tape (its node list is cleared).
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        raise RuntimeError("backward() requires an active tape")
    if loss.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for out, backward_fn in reversed(tape.nodes):
        if out.grad is None:
            continue
        backward_fn(out.grad)
    tape.nodes.clear()


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; they must share a shape or one be a scalar."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(
            f"shape mismatch: {a.data.shape} vs {b.data.shape} "
            "(only equal-shape or scalar operands are supported)"
        )
    return a, b


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Collapse a broadcast gradient back onto a scalar operand.
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if np.prod(shape, dtype=int) == 1 else g


@quiet()
def add(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g):
        accumulate_grad(a, _reduce_to(g, a.data.shape))
        accumulate_grad(b, _reduce_to(g, b.data.shape))

    return record_custom(a.data + b.data, a.requires_grad or b.requires_grad, bwd)


@quiet()
def mul(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g):
        accumulate_grad(a, _reduce_to(g * b.data, a.data.shape))
        accumulate_grad(b, _reduce_to(g * a.data, b.data.shape))

    return record_custom(a.data * b.data, a.requires_grad or b.requires_grad, bwd)


@quiet()
def div(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def bwd(g):
        accumulate_grad(a, _reduce_to(g / b.data, a.data.shape))
        accumulate_grad(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return record_custom(a.data / b.data, a.requires_grad or b.requires_grad, bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        accumulate_grad(a, -g)

    return record_custom(-a.data, a.requires_grad, bwd)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")

    def bwd(g):
        accumulate_grad(a, g / a.data)

    return record_custom(np.log(a.data), a.requires_grad, bwd)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt requires non-negative inputs")
    val = np.sqrt(a.data)

    def bwd(g):
        accumulate_grad(a, g / (2.0 * val))

    return record_custom(val, a.requires_grad, bwd)


# ---------------------------------------------------------------------------
# softmax, reductions and shape ops
# ---------------------------------------------------------------------------

@quiet()
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis`` (max-subtraction)."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    val = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        inner = np.sum(g * val, axis=axis, keepdims=True)
        accumulate_grad(x, (g - inner) * val)

    return record_custom(val, x.requires_grad, bwd)


@quiet()
def sum_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def bwd(g):
        gk = g if axis is None or keepdims else np.expand_dims(g, axis)
        accumulate_grad(x, np.broadcast_to(gk, x.data.shape))

    return record_custom(np.sum(x.data, axis=axis, keepdims=keepdims), x.requires_grad, bwd)


@quiet()
def mean_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]

    def bwd(g):
        gk = g if axis is None or keepdims else np.expand_dims(g, axis)
        accumulate_grad(x, np.broadcast_to(gk / n, x.data.shape))

    return record_custom(np.mean(x.data, axis=axis, keepdims=keepdims), x.requires_grad, bwd)


def expand(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Explicit broadcast of ``x`` to ``shape``; backward sums the expansion."""
    pad = len(shape) - x.data.ndim
    padded = (1,) * pad + x.data.shape
    axes = tuple(i for i, (m, n) in enumerate(zip(padded, shape)) if m != n)

    def bwd(g):
        gr = np.sum(g, axis=axes, keepdims=True) if axes else g
        accumulate_grad(x, gr.reshape(x.data.shape))

    return record_custom(np.broadcast_to(x.data, shape).copy(), x.requires_grad, bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g):
        accumulate_grad(x, g.reshape(x.data.shape))

    return record_custom(x.data.reshape(shape), x.requires_grad, bwd)


def concat(tensors: list[Tensor]) -> Tensor:
    """Join 2-D tensors column-wise (rows must agree)."""
    offsets = np.cumsum([0] + [t.data.shape[1] for t in tensors])

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            accumulate_grad(t, g[:, lo:hi])

    return record_custom(np.concatenate([t.data for t in tensors], axis=1),
                         any(t.requires_grad for t in tensors), bwd)


# ---------------------------------------------------------------------------
# indexed ops (pooling, upsampling, picked entries)
# ---------------------------------------------------------------------------

class RowMap:
    """A fixed map of ``len(index)`` rows onto ``n`` rows, checked and
    counted once.

    Every index lies in [0, n).  :func:`gather_rows` reads row ``index[i]``
    of an (n, ...) source into output row i; :func:`scatter_mean` averages
    source row i into row ``index[i]``.  A map built once, as the point
    pyramid builds its pooling, upsampling and input maps per cloud, spares
    every gather and mean along it the range check and the group sizes.
    """

    def __init__(self, index, n: int):
        index = np.asarray(index, dtype=np.int64)
        if index.size and (index.min() < 0 or index.max() >= n):
            raise IndexError(f"row index out of range [0, {n})")
        self.index = index
        self.n = n

    @cached_property
    def divisor(self) -> np.ndarray:
        """Each row's count of entries, at least 1 so that an empty group
        averages to 0; counted at the first mean along the map, since a
        gather never reads it."""
        return np.maximum(np.bincount(self.index, minlength=self.n), 1).astype(np.float64)


def gather_rows(src: Tensor, rows: RowMap) -> Tensor:
    """Row lookup along ``rows``, a map onto ``src``'s rows.  Backward
    scatter-adds output gradients into the source rows."""
    n = src.data.shape[0]
    if rows.n != n:
        raise ValueError(f"a map onto {rows.n} rows cannot gather from {n} rows")

    def bwd(g):
        accumulate_grad(src, scatter_add_rows(rows.index, g, n))

    return record_custom(src.data[rows.index], src.requires_grad, bwd)


def scatter_add_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of ``values`` into ``n`` rows: out[index[i]] += values[i].

    One ``np.bincount`` over the flattened (row * C + column) keys.  It adds
    each cell's weights in input order starting from 0.0, the order of
    ``np.add.at`` into zeros, so the result is bit-identical to it.
    """
    tail = values.shape[1:]
    c = math.prod(tail)
    keys = index if c == 1 else (index[:, None] * c + np.arange(c)).reshape(-1)
    out = np.bincount(keys, weights=values.reshape(-1), minlength=n * c)
    return out.reshape((n,) + tail)


def scatter_mean(src: Tensor, groups: RowMap) -> Tensor:
    """Average the rows of ``src`` into ``groups.n`` buckets, row i into
    ``groups.index[i]``.  The backward divides the output gradient by the
    group sizes before it gathers it, the same quotients as dividing after."""
    if groups.index.shape[0] != src.data.shape[0]:
        raise ValueError("group ids must cover every source row")
    safe = groups.divisor.reshape((-1,) + (1,) * (src.data.ndim - 1))

    def bwd(g):
        accumulate_grad(src, (g / safe)[groups.index])

    return record_custom(scatter_add_rows(groups.index, src.data, groups.n) / safe,
                         src.requires_grad, bwd)

