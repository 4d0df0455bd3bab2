"""Dense linear layer."""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.init import glorot_uniform, zeros
from repro.nn.module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """``y = x W + b`` with Glorot-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(in_features, out_features, rng=rng), name="weight"
        )
        self.bias = Parameter(zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return x @ self.weight
        return _affine(x, self.weight, self.bias)


def _affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x @ weight + bias`` as one tape node.

    The bias is added in place to the product it just allocated, so the
    pre-bias product never reaches the tape, and the gradient reaches
    ``x`` and ``weight`` without the copy an add node would make.  Results
    are bit-equal to the two-node form.
    """
    out = x.data @ weight.data
    out += bias.data
    x_node, w_node, b_node = x._node, weight._node, bias._node
    # each operand's gradient reads the other, and only when it is formed
    x_data = x.data if w_node is not None else None
    w_data = weight.data if x_node is not None else None

    def backward(grad: np.ndarray) -> None:
        if x_node is not None:
            x_node.accumulate_fresh(grad @ w_data.swapaxes(-1, -2))
        if w_node is not None:
            w_node.accumulate_fresh(x_data.swapaxes(-1, -2) @ grad)
        if b_node is not None:
            b_node.accumulate(grad)

    return Tensor._make(out, (x, weight, bias), backward)
