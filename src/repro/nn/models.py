"""Full GNN models: configurable stacks of GCN / SAGE / GAT layers.

The paper's design space includes model-design knobs (hidden channels, layer
count — Fig. 3, Cat. 3); :func:`build_model` maps those knobs to a concrete
network, and every model shares the ``forward(x, prop)`` interface.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.functional import dropout, elu, log_softmax, relu
from repro.autograd.tensor import Tensor
from repro.nn.graphconv import GATConv, GCNConv, Propagation, SAGEConv
from repro.nn.module import Module

__all__ = ["GNN", "build_model", "count_parameters", "MODEL_NAMES"]

MODEL_NAMES = ("gcn", "sage", "gat")


def _layer_dims(arch, in_features, hidden_channels, num_classes, num_layers, heads):
    """``(d_in, d_out, last)`` of each layer of a :func:`build_model` network.

    PyG convention for GAT: ``hidden_channels`` is the *total* width, split
    across heads, so a hidden ``d_out`` is the width of one head (at least
    one channel) and the next layer reads the ``heads * d_out`` the
    concatenation really emits.  The output layer averages heads onto
    ``num_classes``.
    """
    if arch not in MODEL_NAMES:
        raise ValueError(f"unknown architecture {arch!r}; known: {MODEL_NAMES}")
    hidden = max(hidden_channels // heads, 1) if arch == "gat" else hidden_channels
    emitted = heads * hidden if arch == "gat" else hidden
    dims, d_in = [], in_features
    for _ in range(num_layers - 1):
        dims.append((d_in, hidden, False))
        d_in = emitted
    return [*dims, (d_in, num_classes, True)]


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
    total = 0
    for d_in, d_out, last in _layer_dims(
        arch, in_features, hidden_channels, num_classes, num_layers, heads
    ):
        if arch == "gcn":
            total += d_in * d_out + d_out
        elif arch == "sage":
            total += 2 * d_in * d_out + d_out
        else:
            total += d_in * heads * d_out  # projection
            total += 2 * heads * d_out  # att_src + att_dst
            total += d_out if last else heads * d_out  # bias
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
        if num_layers < 1:
            raise ValueError("num_layers must be at least 1")
        rng = np.random.default_rng(seed)
        self.arch = arch
        self.dropout_p = dropout_p
        self.num_layers = num_layers
        self.hidden_channels = hidden_channels
        self._rng = np.random.default_rng(seed + 1)  # dropout masks

        layers: list[Module] = []
        for d_in, d_out, last in _layer_dims(
            arch, in_features, hidden_channels, num_classes, num_layers, heads
        ):
            if arch == "gcn":
                layers.append(GCNConv(d_in, d_out, rng=rng))
            elif arch == "sage":
                layers.append(SAGEConv(d_in, d_out, rng=rng))
            else:
                layers.append(
                    GATConv(d_in, d_out, heads=heads, concat_heads=not last, rng=rng)
                )
        self.layers = layers

    def forward(self, x: Tensor, prop: Propagation) -> Tensor:
        """Log-probabilities of ``prop.rows`` (every vertex when ``None``)
        from the features ``x`` of all of ``prop``'s vertices.

        Every layer runs on one of ``prop``'s per-layer blocks, so only the
        rows the result depends on are computed.  A block keeps its rows
        whole — SAGE's mean and GAT's attention softmax normalise over the
        entries the square matrix holds — and sums each of them in the
        square's order, so the result is that of computing every row and
        selecting, bit for bit (``tests/test_batch_path.py`` pins it for
        ``evaluate``).  That is why a GCN/SAGE layer picks between
        aggregating and transforming first from its widths and grad mode
        only, never from the block's shape: the two orders round
        differently, and a block and the square must pick the same one.

        GCN/SAGE dropout masks have the shape of the rows a layer produced.
        GAT's are drawn over every vertex of ``prop`` and indexed by those
        rows — the stream an all-rows forward draws (~2% of a GAT step) — so
        that (i) block ≡ all-rows holds *with dropout on*, which
        ``tests/test_batch_path.py`` asserts, and (ii) the trajectory stays
        the one the all-rows path trained: the ledger's smoke ``train_gat``
        sits one test vertex above its accuracy floor, and a block-shaped
        stream lands below it.
        """
        gat = self.arch == "gat"
        blocks, inputs = prop.blocks(
            "sym" if self.arch == "gcn" else "row", self.num_layers
        )
        h = x if inputs is None else x[inputs]
        for i, (layer, block) in enumerate(zip(self.layers, blocks, strict=True)):
            h = layer(h, block)
            if i < self.num_layers - 1:
                h = elu(h) if gat else relu(h)
                h = dropout(
                    h,
                    self.dropout_p,
                    training=self.training,
                    rng=self._rng,
                    within=(prop.num_nodes, block.out_rows) if gat else None,
                )
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
