"""A small reverse-mode automatic-differentiation engine over numpy.

This is the repo's substitute for PyTorch (see DESIGN.md): enough of a tensor
library to train GCN / GraphSAGE / GAT end-to-end.  A :class:`Tensor` wraps a
``float`` numpy array; operations record a backward closure on a tape, and
:meth:`Tensor.backward` walks the tape in reverse topological order.

Design choices kept deliberately boring:

* gradients are accumulated into ``tensor.grad`` (numpy arrays, never
  Tensors) exactly like ``torch.autograd``;
* broadcasting is supported by summing gradients back over broadcast axes;
* no in-place ops, no views — every op allocates, which keeps the tape sound;
* backward consumes the tape, like torch's default ``retain_graph=False``:
  only leaves keep ``.grad``, and a second backward through a node raises.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
]


class _GradMode(threading.local):
    """Per-thread grad mode: one thread's ``no_grad`` must not switch tape
    recording off for a training running on another thread."""

    enabled = True


_GRAD_MODE = _GradMode()

#: float32 matches the precision GNN frameworks train in and halves memory
#: traffic; numeric gradient checks switch to float64 via `default_dtype`.
_DEFAULT_DTYPE = np.float32


def get_default_dtype() -> np.dtype:
    """Dtype new tensors are coerced to."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Globally change the tensor dtype (float32 or float64)."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError("default dtype must be float32 or float64")
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dt


class default_dtype:
    """Context manager temporarily switching the default dtype."""

    def __init__(self, dtype) -> None:
        self._dtype = dtype

    def __enter__(self) -> "default_dtype":
        self._prev = get_default_dtype()
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, *exc) -> None:
        set_default_dtype(self._prev)


class no_grad:
    """Context manager disabling tape recording on this thread (evaluation
    mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Whether new operations on this thread will record backward closures."""
    return _GRAD_MODE.enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _consumed(grad: np.ndarray) -> None:
    """What a node's backward closure becomes once backward has run it."""
    raise RuntimeError(
        "backward through a tape that an earlier backward() already consumed"
    )


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: np.ndarray | float | int | Iterable,
        *,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        arr = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ----------------------------------------------------------- tape plumbing
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_fresh(self, grad: np.ndarray) -> None:
        """Accumulate a gradient the caller guarantees is freshly allocated.

        Skips the defensive copy of :meth:`_accumulate`; only backward
        closures that just built ``grad`` (matmul, elementwise products,
        spmm...) may use this.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to scalar seed 1).

        The walk consumes the tape: once a node's closure has run, the node
        drops it, its parents and — unless it is a leaf — its ``.grad``, so
        every activation and intermediate gradient is freed as soon as
        nothing below it reads it.  Leaves (parameters) keep ``.grad``.
        """
        if not self.requires_grad:
            raise RuntimeError(
                "backward() on a tensor that recorded no tape (requires_grad "
                "is False: built under no_grad, or from constants only)"
            )
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node._backward, node._parents, node.grad = _consumed, (), None

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    # -------------------------------------------------------------- shape info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Read-only view of the underlying data."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate_fresh(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            # a product is only worth forming for an operand that keeps it
            if self.requires_grad:
                self._accumulate_fresh(grad * other.data)
            if other.requires_grad:
                other._accumulate_fresh(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_fresh(grad / other.data)
            if other.requires_grad:
                other._accumulate_fresh(-grad * self.data / (other.data**2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate_fresh(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            # in every first layer ``self`` is the constant feature matrix:
            # its gradient would be the largest product of the step
            if self.requires_grad:
                self._accumulate_fresh(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate_fresh(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = self.data == o
            # Split gradient among ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------ shape moves
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, idx, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce value to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
