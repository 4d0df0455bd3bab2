"""Differentiable activation, normalisation and loss functions.

These compose :class:`~repro.autograd.tensor.Tensor` primitives or register
custom backward closures where a fused implementation is clearer or more
numerically stable (log-softmax, cross-entropy).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "relu",
    "leaky_relu",
    "elu",
    "exp",
    "log",
    "sigmoid",
    "tanh",
    "dropout",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "concat",
]


def relu(x: Tensor) -> Tensor:
    x = as_tensor(x)
    node, mask = x._node, x.data > 0

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    x = as_tensor(x)
    node, mask = x._node, x.data > 0
    out = np.where(mask, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        # the factor in the gradient's dtype: a float64 one would upcast it
        one, slope = grad.dtype.type(1.0), grad.dtype.type(negative_slope)
        node.accumulate_fresh(grad * np.where(mask, one, slope))

    return Tensor._make(out, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    x = as_tensor(x)
    node, mask = x._node, x.data > 0
    neg = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out = np.where(mask, x.data, neg)

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad * np.where(mask, 1.0, neg + alpha))

    return Tensor._make(out, (x,), backward)


def exp(x: Tensor) -> Tensor:
    x = as_tensor(x)
    node, out = x._node, np.exp(x.data)

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad * out)

    return Tensor._make(out, (x,), backward)


def log(x: Tensor) -> Tensor:
    x = as_tensor(x)
    node, data = x._node, x.data

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad / data)

    return Tensor._make(np.log(data), (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    x = as_tensor(x)
    node, out = x._node, 1.0 / (1.0 + np.exp(-x.data))

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad * out * (1.0 - out))

    return Tensor._make(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    x = as_tensor(x)
    node, out = x._node, np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad * (1.0 - out**2))

    return Tensor._make(out, (x,), backward)


def dropout(
    x: Tensor,
    p: float,
    *,
    training: bool = True,
    rng: np.random.Generator | None = None,
    within: tuple[int, np.ndarray | None] | None = None,
) -> Tensor:
    """Inverted dropout; identity when evaluating or when ``p == 0``.

    ``within=(n, rows)`` says ``x`` holds rows ``rows`` (``None``: all) of an
    ``n``-row tensor: the mask is drawn for all ``n`` and its ``rows`` are
    applied, so the random stream does not depend on which rows were computed.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must lie in [0, 1)")
    x = as_tensor(x)
    if not training or p == 0.0 or not is_grad_enabled():
        return x
    rng = rng or np.random.default_rng()
    # float32 draws are ~2x faster and precision is irrelevant for masking.
    if within is None:
        draw = rng.random(x.data.shape, dtype=np.float32)
    else:
        draw = rng.random((within[0], *x.data.shape[1:]), dtype=np.float32)
        draw = draw if within[1] is None else draw[within[1]]
    # the tape keeps the boolean mask (1 byte an element); both passes scale
    # it by the same two ops, so forward and backward multiply by equal bits
    node, mask, dtype = x._node, draw >= p, x.data.dtype

    def scale() -> np.ndarray:
        keep = mask.astype(dtype)
        keep /= 1.0 - p
        return keep

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad * scale())

    return Tensor._make(x.data * scale(), (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable fused log-softmax."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_z
    node, softmax = x._node, np.exp(out)

    def backward(grad: np.ndarray) -> None:
        node.accumulate_fresh(grad - softmax * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood for integer class targets."""
    log_probs = as_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.data.shape[0]
    if targets.shape != (n,):
        raise ValueError("targets must be a 1-D class-id array matching rows")
    picked = log_probs.data[np.arange(n), targets]
    node = log_probs._node

    def backward(grad: np.ndarray) -> None:
        full = np.zeros(node.shape, dtype=node.dtype)
        full[np.arange(n), targets] = -grad / n
        node.accumulate_fresh(full)

    return Tensor._make(np.asarray(-picked.mean()), (log_probs,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Softmax cross-entropy from raw logits."""
    return nll_loss(log_softmax(logits, axis=-1), targets)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    nodes = [t._node for t in tensors]

    def backward(grad: np.ndarray) -> None:
        for node, lo, hi in zip(nodes, offsets[:-1], offsets[1:], strict=True):
            if node is not None:
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(lo, hi)
                node.accumulate(grad[tuple(idx)])

    return Tensor._make(out, tuple(tensors), backward)
