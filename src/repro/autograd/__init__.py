"""Reverse-mode autodiff over numpy: the repo's PyTorch substitute."""

from repro.autograd.functional import (
    concat,
    cross_entropy,
    dropout,
    elu,
    exp,
    leaky_relu,
    log,
    log_softmax,
    nll_loss,
    relu,
    sigmoid,
    tanh,
)
from repro.autograd.sparse import (
    gather,
    normalized_adjacency,
    segment_softmax,
    spmm,
)
from repro.autograd.tensor import (
    Tensor,
    as_tensor,
    default_dtype,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "set_default_dtype",
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
    "gather",
    "segment_softmax",
    "spmm",
    "normalized_adjacency",
]
