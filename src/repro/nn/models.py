"""Full GNN models: configurable stacks of GCN / SAGE / GAT layers.

The paper's design space includes model-design knobs (hidden channels, layer
count — Fig. 3, Cat. 3); :func:`build_model` maps those knobs to a concrete
network, and every model shares the ``forward(x, prop)`` interface.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.functional import dropout, elu, log_softmax, relu
from repro.autograd.sparse import gather
from repro.autograd.tensor import Tensor
from repro.nn.graphconv import GATConv, GCNConv, Propagation, SAGEConv
from repro.nn.module import Module

__all__ = ["GNN", "build_model", "count_parameters", "MODEL_NAMES"]

MODEL_NAMES = ("gcn", "sage", "gat")


def count_parameters(
    arch: str,
    in_features: int,
    num_classes: int,
    *,
    hidden_channels: int = 64,
    num_layers: int = 2,
    heads: int = 4,
) -> int:
    """|Φ| of a :func:`build_model` network without allocating it.

    Drives Γ_model (Eq. 10) inside the performance estimator, where building
    real weight arrays for thousands of candidates would be wasteful.
    """
    if arch not in MODEL_NAMES:
        raise ValueError(f"unknown architecture {arch!r}; known: {MODEL_NAMES}")
    dims_in = [in_features] + [hidden_channels] * (num_layers - 1)
    dims_out = [hidden_channels] * (num_layers - 1) + [num_classes]
    total = 0
    for i, (d_in, d_out) in enumerate(zip(dims_in, dims_out, strict=True)):
        last = i == num_layers - 1
        if arch == "gcn":
            total += d_in * d_out + d_out
        elif arch == "sage":
            total += 2 * d_in * d_out + d_out
        else:
            head_out = max(d_out // heads, 1) if not last else d_out
            total += d_in * heads * head_out  # projection
            total += 2 * heads * head_out  # att_src + att_dst
            total += heads * head_out if not last else d_out  # bias
    return total


class GNN(Module):
    """A stack of graph-convolution layers with dropout and log-softmax head."""

    def __init__(
        self,
        arch: str,
        in_features: int,
        hidden_channels: int,
        num_classes: int,
        *,
        num_layers: int = 2,
        heads: int = 4,
        dropout_p: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if arch not in MODEL_NAMES:
            raise ValueError(f"unknown architecture {arch!r}; known: {MODEL_NAMES}")
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        rng = np.random.default_rng(seed)
        self.arch = arch
        self.dropout_p = dropout_p
        self.num_layers = num_layers
        self.hidden_channels = hidden_channels
        self._rng = np.random.default_rng(seed + 1)  # dropout masks

        layers: list[Module] = []
        dims_in = [in_features] + [hidden_channels] * (num_layers - 1)
        dims_out = [hidden_channels] * (num_layers - 1) + [num_classes]
        for i, (d_in, d_out) in enumerate(zip(dims_in, dims_out, strict=True)):
            last = i == num_layers - 1
            if arch == "gcn":
                layers.append(GCNConv(d_in, d_out, rng=rng))
            elif arch == "sage":
                layers.append(SAGEConv(d_in, d_out, rng=rng))
            else:
                # PyG convention: hidden_channels is the *total* width, split
                # across heads; concatenated heads restore it.  The output
                # layer averages heads onto num_classes.
                head_out = max(d_out // heads, 1) if not last else d_out
                layers.append(
                    GATConv(d_in, head_out, heads=heads, concat_heads=not last, rng=rng)
                )
        self.layers = layers

    def forward(self, x: Tensor, prop: Propagation) -> Tensor:
        """Log-probabilities of ``prop.rows`` (every vertex when ``None``)
        from the features ``x`` of all of ``prop``'s vertices.

        GCN/SAGE layers multiply by ``prop``'s per-layer blocks, so only the
        rows the result depends on are computed; attention normalises over
        whole neighbourhoods through per-edge operators, so GAT computes
        every row and selects.
        """
        # Fusing kernels take the hidden-layer relu inside the aggregation
        # call; the dropout draws have the same shapes and order either way,
        # so switching kernels never desynchronises the mask sequence.
        kernel = getattr(prop, "kernel", None)
        fuse = kernel is not None and kernel.fuses_epilogue and self.arch != "gat"
        if self.arch == "gat":
            blocks, inputs = [prop] * self.num_layers, None
        else:
            blocks, inputs = prop.blocks(
                "sym" if self.arch == "gcn" else "row", self.num_layers
            )
        h = x if inputs is None else x[inputs]
        for i, (layer, block) in enumerate(zip(self.layers, blocks, strict=True)):
            last = i == self.num_layers - 1
            if fuse:
                h = layer(h, block, activation=None if last else "relu")
            else:
                h = layer(h, block)
                if not last:
                    h = elu(h) if self.arch == "gat" else relu(h)
            if not last:
                h = dropout(h, self.dropout_p, training=self.training, rng=self._rng)
        if self.arch == "gat" and prop.rows is not None:
            h = gather(h, prop.rows, unique=True)
        return log_softmax(h, axis=-1)


def build_model(
    arch: str,
    in_features: int,
    num_classes: int,
    *,
    hidden_channels: int = 64,
    num_layers: int = 2,
    heads: int = 4,
    dropout_p: float = 0.5,
    seed: int = 0,
) -> GNN:
    """Factory mapping design-space model knobs to a concrete network."""
    return GNN(
        arch,
        in_features,
        hidden_channels,
        num_classes,
        num_layers=num_layers,
        heads=heads,
        dropout_p=dropout_p,
        seed=seed,
    )
