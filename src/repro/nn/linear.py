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

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_fresh(grad @ weight.data.swapaxes(-1, -2))
        if weight.requires_grad:
            weight._accumulate_fresh(x.data.swapaxes(-1, -2) @ grad)
        bias._accumulate(grad)

    return Tensor._make(out, (x, weight, bias), backward)
