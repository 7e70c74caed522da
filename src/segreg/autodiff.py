"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation executed inside its
``with`` block (define-by-run).  Calling :func:`backward` on a scalar loss
walks the tape once in reverse and accumulates ``grad`` buffers on every
tensor that requires gradients.  Outside a tape, the same operations run as
plain numpy forward computations (inference mode).

Broadcasting is deliberately restricted to scalar-vs-tensor and equal-shape
operands; mixed-shape broadcasts must go through :func:`expand`, which makes
the reduction in the backward pass explicit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "backward",
    "NonFiniteError",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "exp",
    "log",
    "sqrt",
    "relu",
    "leaky_relu",
    "matmul",
    "softmax",
    "sum_",
    "mean_",
    "expand",
    "reshape",
    "transpose2d",
    "concat",
    "narrow",
    "gather_rows",
    "scatter_mean",
    "stop_gradient",
    "as_tensor",
    "record_custom",
    "accumulate_grad",
    "finite_difference_gradient",
    "max_relative_error",
]

_ACTIVE_TAPE: "Tape | None" = None


class NonFiniteError(ValueError):
    """Raised when a tensor would hold a NaN or an infinity."""


class Tensor:
    """A dense float64 array plus gradient metadata."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor data must be finite")
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars are accepted, general arrays must be Tensors.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


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


def as_tensor(x, requires_grad: bool = False) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=requires_grad)


def _record(out: Tensor, backward_fn) -> Tensor:
    if _ACTIVE_TAPE is not None and out.requires_grad:
        _ACTIVE_TAPE.nodes.append((out, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if g.flags.owndata and g.flags.writeable else g.copy()
    else:
        t.grad = t.grad + g


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Public accumulation hook for fused custom operations."""
    _accumulate(t, g)


def record_custom(out_data: np.ndarray, requires_grad: bool, backward_fn) -> Tensor:
    """Register a fused operation with a hand-written backward.

    ``backward_fn`` receives the output gradient and must call
    :func:`accumulate_grad` on each differentiable input.
    """
    out = Tensor(out_data)
    out.requires_grad = bool(requires_grad)
    return _record(out, backward_fn)


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

def _binary_shapes(a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape:
        return
    if a.data.size == 1 or b.data.size == 1:
        return
    raise ValueError(
        f"shape mismatch: {a.data.shape} vs {b.data.shape} "
        "(only equal-shape or scalar operands are supported)"
    )


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Collapse a broadcast gradient back onto a scalar operand.
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if np.prod(shape, dtype=int) == 1 else g


def add(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    _binary_shapes(a, b)
    out = Tensor(a.data + b.data)
    out.requires_grad = a.requires_grad or b.requires_grad

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.data.shape))
        _accumulate(b, _reduce_to(g, b.data.shape))

    return _record(out, bwd)


def sub(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    _binary_shapes(a, b)
    out = Tensor(a.data - b.data)
    out.requires_grad = a.requires_grad or b.requires_grad

    def bwd(g):
        _accumulate(a, _reduce_to(g, a.data.shape))
        _accumulate(b, _reduce_to(-g, b.data.shape))

    return _record(out, bwd)


def mul(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    _binary_shapes(a, b)
    out = Tensor(a.data * b.data)
    out.requires_grad = a.requires_grad or b.requires_grad

    def bwd(g):
        _accumulate(a, _reduce_to(g * b.data, a.data.shape))
        _accumulate(b, _reduce_to(g * a.data, b.data.shape))

    return _record(out, bwd)


def div(a: Tensor, b) -> Tensor:
    a = as_tensor(a)
    b = as_tensor(b)
    _binary_shapes(a, b)
    out = Tensor(a.data / b.data)
    out.requires_grad = a.requires_grad or b.requires_grad

    def bwd(g):
        _accumulate(a, _reduce_to(g / b.data, a.data.shape))
        _accumulate(b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, bwd)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    out.requires_grad = a.requires_grad

    def bwd(g):
        _accumulate(a, -g)

    return _record(out, bwd)


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        val = np.exp(a.data)
    if not np.all(np.isfinite(val)):
        raise FloatingPointError("exp overflow; inputs too large")
    out = Tensor(val)
    out.requires_grad = a.requires_grad

    def bwd(g):
        _accumulate(a, g * val)

    return _record(out, bwd)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive inputs")
    out = Tensor(np.log(a.data))
    out.requires_grad = a.requires_grad

    def bwd(g):
        _accumulate(a, g / a.data)

    return _record(out, bwd)


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt requires non-negative inputs")
    val = np.sqrt(a.data)
    out = Tensor(val)
    out.requires_grad = a.requires_grad

    def bwd(g):
        _accumulate(a, g / (2.0 * val))

    return _record(out, bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    out = Tensor(np.where(mask, a.data, 0.0))
    out.requires_grad = a.requires_grad

    def bwd(g):
        _accumulate(a, g * mask)

    return _record(out, bwd)


def leaky_relu(a: Tensor, slope: float = 0.1) -> Tensor:
    mask = a.data > 0.0
    out = Tensor(np.where(mask, a.data, slope * a.data))
    out.requires_grad = a.requires_grad

    def bwd(g):
        _accumulate(a, g * np.where(mask, 1.0, slope))

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    out.requires_grad = a.requires_grad or b.requires_grad

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _record(out, bwd)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis`` (max-subtraction)."""
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    val = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(val)
    out.requires_grad = x.requires_grad

    def bwd(g):
        inner = np.sum(g * val, axis=axis, keepdims=True)
        _accumulate(x, (g - inner) * val)

    return _record(out, bwd)


def sum_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))
    out.requires_grad = x.requires_grad

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g, x.data.shape))
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(gk, x.data.shape))

    return _record(out, bwd)


def mean_(x: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = x.data.size if axis is None else x.data.shape[axis]
    out = Tensor(np.mean(x.data, axis=axis, keepdims=keepdims))
    out.requires_grad = x.requires_grad

    def bwd(g):
        if axis is None:
            _accumulate(x, np.broadcast_to(g / n, x.data.shape))
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            _accumulate(x, np.broadcast_to(gk / n, x.data.shape))

    return _record(out, bwd)


def expand(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Explicit broadcast of ``x`` to ``shape``; backward sums the expansion."""
    val = np.broadcast_to(x.data, shape)
    out = Tensor(val.copy())
    out.requires_grad = x.requires_grad
    pad = len(shape) - x.data.ndim
    padded = (1,) * pad + x.data.shape
    axes = tuple(i for i, (m, n) in enumerate(zip(padded, shape)) if m != n)

    def bwd(g):
        gr = np.sum(g, axis=axes, keepdims=True) if axes else g
        _accumulate(x, gr.reshape(x.data.shape))

    return _record(out, bwd)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))
    out.requires_grad = x.requires_grad

    def bwd(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _record(out, bwd)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError("transpose2d expects a 2-D tensor")
    out = Tensor(x.data.T.copy())
    out.requires_grad = x.requires_grad

    def bwd(g):
        _accumulate(x, g.T)

    return _record(out, bwd)


def concat(tensors: list[Tensor], axis: int = 1) -> Tensor:
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    out.requires_grad = any(t.requires_grad for t in tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _record(out, bwd)


def narrow(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Slice ``x`` along one axis; backward zero-pads the complement."""
    idx = [slice(None)] * x.data.ndim
    idx[axis] = slice(start, stop)
    idx = tuple(idx)
    out = Tensor(x.data[idx].copy())
    out.requires_grad = x.requires_grad

    def bwd(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        _accumulate(x, full)

    return _record(out, bwd)


# ---------------------------------------------------------------------------
# indexed ops (ragged neighborhoods, pooling)
# ---------------------------------------------------------------------------

def gather_rows(src: Tensor, index: np.ndarray) -> Tensor:
    """Row lookup with a shadow index.

    ``index`` entries lie in [0, N]; the value N selects an implicit all-zero
    row, which lets ragged neighborhoods be padded without branching.
    Backward scatter-adds output gradients into the real source rows.
    """
    index = np.asarray(index, dtype=np.int64)
    n = src.data.shape[0]
    if index.size and (index.min() < 0 or index.max() > n):
        raise IndexError(f"gather index out of range [0, {n}]")
    padded = np.concatenate([src.data, np.zeros((1,) + src.data.shape[1:])], axis=0)
    out = Tensor(padded[index])
    out.requires_grad = src.requires_grad

    def bwd(g):
        gsrc = np.zeros_like(src.data)
        real = index < n
        np.add.at(gsrc, index[real], g[real])
        _accumulate(src, gsrc)

    return _record(out, bwd)


def scatter_mean(src: Tensor, group: np.ndarray, n_groups: int) -> Tensor:
    """Average rows of ``src`` into ``n_groups`` buckets given per-row group ids."""
    group = np.asarray(group, dtype=np.int64)
    if group.shape[0] != src.data.shape[0]:
        raise ValueError("group ids must cover every source row")
    if group.size and (group.min() < 0 or group.max() >= n_groups):
        raise IndexError("group id out of range")
    counts = np.bincount(group, minlength=n_groups).astype(np.float64)
    safe = np.maximum(counts, 1.0)
    acc = np.zeros((n_groups,) + src.data.shape[1:])
    np.add.at(acc, group, src.data)
    out = Tensor(acc / safe.reshape((-1,) + (1,) * (src.data.ndim - 1)))
    out.requires_grad = src.requires_grad

    def bwd(g):
        _accumulate(src, g[group] / safe[group].reshape((-1,) + (1,) * (src.data.ndim - 1)))

    return _record(out, bwd)


def stop_gradient(x: Tensor) -> Tensor:
    """Forward identity that contributes zero gradient through this edge."""
    return Tensor(x.data)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def finite_difference_gradient(f, arrays: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of scalar ``f(arrays)`` w.r.t. every entry.

    Independent of the tape machinery by construction: only calls ``f`` on
    perturbed copies.
    """
    grads = []
    for k, a in enumerate(arrays):
        g = np.zeros_like(a, dtype=np.float64)
        flat = g.reshape(-1)
        base = [x.copy() for x in arrays]
        for i in range(a.size):
            plus = [x.copy() for x in base]
            minus = [x.copy() for x in base]
            plus[k].reshape(-1)[i] += h
            minus[k].reshape(-1)[i] -= h
            flat[i] = (f(plus) - f(minus)) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|), the gradcheck metric."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
