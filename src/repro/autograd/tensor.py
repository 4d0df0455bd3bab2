"""A small reverse-mode automatic-differentiation engine over numpy.

This is the repo's substitute for PyTorch (see DESIGN.md): enough of a tensor
library to train GCN / GraphSAGE / GAT end-to-end.  A :class:`Tensor` wraps a
``float`` numpy array; operations record a backward closure on a tape of
:class:`_Node` objects, and :meth:`Tensor.backward` walks the tape in reverse
topological order.  The tape is apart from the tensors, as in torch: a node
holds its parents' nodes and a closure that keeps only the arrays it reads,
so the data of a tensor nothing reads dies with the tensor.

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


class _Node:
    """One entry of the tape: what backward needs of a tensor, minus its data.

    A node holds its parents' nodes, its backward closure, its gradient
    buffer and the shape and dtype of the tensor it stands for.  The closure
    keeps the arrays it reads and the parent nodes it accumulates into —
    never a parent tensor — so an activation's buffer is freed as soon as
    neither the program nor a closure that reads it holds it.  A leaf
    (``backward is None``: a tensor created with ``requires_grad``) keeps
    its gradient: that buffer is the tensor's ``.grad``.
    """

    __slots__ = ("parents", "backward", "grad", "shape", "dtype")

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype,
        parents: tuple["_Node", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.parents = parents
        self.backward = backward
        self.grad: np.ndarray | None = None
        self.shape = shape
        self.dtype = dtype

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` (summed over broadcast axes) to the buffer, copying
        it first if the buffer is empty."""
        grad = _unbroadcast(np.asarray(grad, dtype=self.dtype), self.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def accumulate_fresh(self, grad: np.ndarray) -> None:
        """:meth:`accumulate` for a gradient the caller guarantees is freshly
        allocated: an empty buffer takes it without the defensive copy.

        Only backward closures that just built ``grad`` (matmul, elementwise
        products, spmm...) may use this.
        """
        grad = _unbroadcast(np.asarray(grad, dtype=self.dtype), self.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff: its
    data plus, when it requires grad, its :class:`_Node` on the tape."""

    __slots__ = ("data", "_node", "name")
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
        self._node = _Node(arr.shape, arr.dtype) if requires_grad else None
        self.name = name

    # ----------------------------------------------------------- tape plumbing
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """The result of an op over ``parents``; it records ``backward`` when
        grad mode is on and a parent requires grad.  ``backward`` must reach
        the parents through their nodes (``parent._node``, ``None`` for one
        that requires no grad), never through the tensors."""
        out = Tensor(data)
        if _GRAD_MODE.enabled:
            nodes = tuple(p._node for p in parents if p._node is not None)
            if nodes:
                out._node = _Node(out.data.shape, out.data.dtype, nodes, backward)
        return out

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self) -> np.ndarray | None:
        """The accumulated gradient of a leaf; ``None`` for a non-leaf once
        backward has consumed its node."""
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise RuntimeError("cannot set .grad on a tensor that requires no grad")

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to scalar seed 1).

        ``grad`` must have this tensor's shape.  The walk consumes the tape:
        once a node's closure has run, the node drops it (and with it the
        arrays it read), its parents and — unless it is a leaf — its
        gradient, so every saved array and intermediate gradient is freed as
        soon as nothing below it reads it.  Leaves (parameters) keep
        ``.grad``.
        """
        root = self._node
        if root is None:
            raise RuntimeError(
                "backward() on a tensor that recorded no tape (requires_grad "
                "is False: built under no_grad, or from constants only)"
            )
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(
                f"backward() seed has shape {np.shape(grad)}, "
                f"the tensor {self.data.shape}"
            )
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        root.accumulate(grad)
        while topo:
            node = topo.pop()
            if node.backward is not None:
                if node.grad is not None:
                    node.backward(node.grad)
                node.backward, node.parents, node.grad = _consumed, (), None

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
        a, b = self._node, other._node

        def backward(grad: np.ndarray) -> None:
            if a is not None:
                a.accumulate(grad)
            if b is not None:
                b.accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        node = self._node

        def backward(grad: np.ndarray) -> None:
            node.accumulate_fresh(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data
        a, b = self._node, other._node
        # each operand's gradient reads the other, and is only worth forming
        # for an operand that keeps it
        x = self.data if b is not None else None
        y = other.data if a is not None else None

        def backward(grad: np.ndarray) -> None:
            if a is not None:
                a.accumulate_fresh(grad * y)
            if b is not None:
                b.accumulate_fresh(grad * x)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data
        a, b = self._node, other._node
        x, y = (self.data if b is not None else None), other.data

        def backward(grad: np.ndarray) -> None:
            if a is not None:
                a.accumulate_fresh(grad / y)
            if b is not None:
                b.accumulate_fresh(-grad * x / (y**2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent
        node, x = self._node, self.data

        def backward(grad: np.ndarray) -> None:
            node.accumulate_fresh(grad * exponent * x ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data
        a, b = self._node, other._node
        # in every first layer ``self`` is the constant feature matrix: its
        # gradient would be the largest product of the step
        x = self.data if b is not None else None
        y = other.data if a is not None else None

        def backward(grad: np.ndarray) -> None:
            if a is not None:
                a.accumulate_fresh(grad @ y.swapaxes(-1, -2))
            if b is not None:
                b.accumulate_fresh(x.swapaxes(-1, -2) @ grad)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        node, shape = self._node, self.data.shape
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            node.accumulate(np.broadcast_to(g, shape))

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
        node, x = self._node, self.data

        def backward(grad: np.ndarray) -> None:
            g = grad
            o = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = x == o
            # Split gradient among ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            node.accumulate(np.where(mask, g / counts, 0.0))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------ shape moves
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        node, original = self._node, self.data.shape

        def backward(grad: np.ndarray) -> None:
            node.accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        out_data = self.data.T
        node = self._node

        def backward(grad: np.ndarray) -> None:
            node.accumulate(grad.T)

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]
        node = self._node

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(node.shape, dtype=node.dtype)
            np.add.at(full, idx, grad)
            node.accumulate(full)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value) -> Tensor:
    """Coerce value to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)
