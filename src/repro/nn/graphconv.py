"""Graph convolution layers: GCN, GraphSAGE and GAT (Eq. 1 Aggregate/Combine).

Layers consume a :class:`Propagation` — the per-mini-batch message-passing
structure built once from a sampled subgraph and shared by all layers, so the
normalised adjacency is not recomputed per layer — or one of the per-layer
:class:`Block` objects it cuts when only some output rows are read.  A
GCN/SAGE aggregation is one :func:`~repro.autograd.sparse.spmm` call, a GAT
one :func:`~repro.autograd.sparse.attention_spmm` call.  A GCN/SAGE layer
aggregates its input and then multiplies by its weight, or multiplies first
and aggregates the narrower product: :func:`_transform_first` picks.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd.functional import leaky_relu
from repro.autograd.sparse import (
    attention_spmm,
    edge_operators,
    gather,
    normalized_adjacency,
    segment_softmax,
    spmm,
)
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.nn.init import glorot_uniform, zeros
from repro.nn.linear import Linear
from repro.nn.module import Module, Parameter

__all__ = ["Propagation", "Block", "GCNConv", "SAGEConv", "GATConv"]


class Block:
    """One layer's rectangular share ``A[rows][:, columns]`` of a propagation
    matrix: it maps the embeddings of ``columns`` to those of ``rows``.

    ``self_index`` locates each output row among the input rows (the
    diagonal of ``A`` keeps ``rows`` ⊆ ``columns``) and ``out_rows`` names
    them in the propagation the block was cut from.  Layers read a block
    through the same members they read a :class:`Propagation` through:
    :meth:`operator` / :meth:`edges` and :meth:`self_rows`.

    Every layer aggregates at the CSR *row*: row ``v`` of the output is a
    function of the stored entries of row ``v`` — their mean for SAGE, the
    attention softmax over them for GAT.  A block keeps each of its rows
    whole, so both normalise over exactly the entries the square matrix
    holds.  (``CSRGraph`` is symmetric by contract and ``induced_subgraph``
    keeps it so: on the graphs this repo trains on, a row's entries are the
    vertex's in- and out-neighbours alike.)
    """

    def __init__(
        self, matrix: sp.csr_matrix, self_index: np.ndarray, out_rows: np.ndarray
    ) -> None:
        self.matrix = matrix
        self.self_index = self_index
        self.out_rows = out_rows
        self._edges: tuple[sp.csr_matrix, ...] | None = None

    def operator(self, mode: str) -> tuple[sp.csr_matrix, dict]:
        """The block and the ``spmm`` keywords naming its transpose: none —
        ``spmm`` transposes on the first backward that reaches it, and the
        first layer's input takes no gradient."""
        return self.matrix, {}

    def edges(self) -> tuple[sp.csr_matrix, ...]:
        """Its :func:`~repro.autograd.sparse.edge_operators`, kept like
        :meth:`Propagation.edges`: the blocks ``evaluate`` reads serve every
        epoch."""
        if self._edges is None:
            self._edges = edge_operators(self.matrix)
        return self._edges

    def self_rows(self, x: Tensor) -> Tensor:
        """The input rows that are this block's output vertices."""
        return gather(x, self.self_index, unique=True)


class Propagation:
    """Message-passing structure of one (sub)graph, built lazily.

    ``sym``/``row`` are the GCN / mean-aggregation propagation matrices;
    :meth:`edges` enumerates the entries of ``row`` — every edge and every
    self-loop — for attention layers.  As a layer's block it is the square
    one: every row in (``self_rows``), every row out (``out_rows`` is
    ``None``).

    ``rows`` (sorted, distinct) names the vertices whose output the caller
    reads — the loss targets of a mini-batch, the validation and test
    vertices of ``evaluate``; ``None`` means all of them.
    A model returns exactly those rows and, through :meth:`blocks`, computes
    nothing else that they do not depend on.
    """

    out_rows = None

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_nodes: int,
        *,
        rows: np.ndarray | None = None,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.num_nodes = int(num_nodes)
        self.rows = None if rows is None else np.asarray(rows, dtype=np.int64)
        self._sym: sp.csr_matrix | None = None
        self._row: sp.csr_matrix | None = None
        self._row_t: sp.csr_matrix | None = None
        self._edges: tuple[sp.csr_matrix, ...] | None = None
        self._chains: dict[str, list[tuple]] = {}

    @classmethod
    def from_graph(cls, graph, *, rows=None) -> "Propagation":
        """Build from any object with ``indptr``/``indices``/``num_nodes``."""
        return cls(graph.indptr, graph.indices, graph.num_nodes, rows=rows)

    def operator(self, mode: str) -> tuple[sp.csr_matrix, dict]:
        """The square ``mode`` matrix and the ``spmm`` keywords naming its
        transpose."""
        if mode == "sym":
            return self.sym, {"symmetric": True}
        return self.row, {"transposed": self.row_t}

    def edges(self) -> tuple[sp.csr_matrix, ...]:
        """:func:`~repro.autograd.sparse.edge_operators` of ``row``, kept
        like the matrices: the full-graph propagation builds them once."""
        if self._edges is None:
            self._edges = edge_operators(self.row)
        return self._edges

    def self_rows(self, x: Tensor) -> Tensor:
        """Square: every input row is an output vertex."""
        return x

    def blocks(self, mode: str, num_layers: int) -> tuple[list, np.ndarray | None]:
        """What each of ``num_layers`` stacked layers multiplies by, first
        layer first, and the rows of the input the first one reads.

        Working back from ``rows``, layer ``l`` gets the rows of the ``mode``
        matrix its successor reads, restricted to the columns they touch —
        which are the rows layer ``l - 1`` must produce.  Each block is
        written straight from the structure
        (:func:`~repro.autograd.sparse.normalized_adjacency` with ``rows``)
        with the degrees of the whole (sub)graph, so the result equals
        computing every row and selecting, and the square is never built
        for it.  Where the closure reaches every vertex (and always when
        ``rows`` is ``None``) the block is this object itself and the input
        rows are ``None``, meaning all.

        The blocks or the square ``mode`` matrix is kept, never both.  When
        no layer runs on the square it is dropped if it was built and the
        blocks are kept, so each is cut once: the last layer's block serves
        every depth, and a deeper stack cuts only the layers in front of
        it.  When a layer runs on the square, the blocks beside it are cut
        per call.
        """
        chain = self._chains.pop(mode, [])  # (block, its columns), last layer first
        rows = chain[-1][1] if chain else self.rows
        while (
            len(chain) < num_layers and rows is not None and rows.size < self.num_nodes
        ):
            matrix, self_index, columns = normalized_adjacency(
                self.indptr, self.indices, self.num_nodes, mode=mode, rows=rows
            )
            chain.append((Block(matrix, self_index, rows), columns))
            rows = columns
        blocks = [block for block, _ in reversed(chain[:num_layers])]
        if len(blocks) < num_layers:  # the first layers run on the square
            return [self] * (num_layers - len(blocks)) + blocks, None
        self._chains[mode] = chain
        if mode == "sym":
            self._sym = None
        else:
            self._row = self._row_t = self._edges = None
        return blocks, chain[num_layers - 1][1]

    @property
    def sym(self) -> sp.csr_matrix:
        if self._sym is None:
            self._sym = normalized_adjacency(
                self.indptr, self.indices, self.num_nodes, mode="sym"
            )
        return self._sym

    @property
    def row(self) -> sp.csr_matrix:
        if self._row is None:
            self._row = normalized_adjacency(
                self.indptr, self.indices, self.num_nodes, mode="row"
            )
        return self._row

    @property
    def row_t(self) -> sp.csr_matrix:
        if self._row_t is None:
            self._row_t = self.row.T.tocsr()
        return self._row_t


def _transform_first(lin: Linear, x: Tensor) -> bool:
    """Whether a GCN/SAGE layer computes ``A·(x W)`` rather than ``(A·x) W``.

    Both orders are the same product; the sparse one costs its width per
    entry, so multiplying first pays when it at least halves the width —
    below that, a block reading several times the rows it writes gives the
    saving back in the dense product.  It must also add no backward
    product: on an input that takes no gradient (a first layer's features,
    in a training step), ``(A·x) W`` runs no sparse backward and ``A·(x W)``
    would.  Only widths and grad mode decide, never the block's shape, so a
    block and the square propagation always pick the same order and a
    block's rows stay the square's bit for bit.
    """
    return 2 * lin.out_features <= lin.in_features and (
        x.requires_grad or not is_grad_enabled()
    )


class GCNConv(Module):
    """Kipf & Welling graph convolution: ``D^-1/2 Â D^-1/2 X W``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.lin = Linear(in_features, out_features, bias=True, rng=rng)

    def forward(self, x: Tensor, prop: Propagation) -> Tensor:
        matrix, transpose = prop.operator("sym")
        if _transform_first(self.lin, x):
            return spmm(matrix, x @ self.lin.weight, **transpose) + self.lin.bias
        return self.lin(spmm(matrix, x, **transpose))


class SAGEConv(Module):
    """GraphSAGE mean aggregator: ``W_self x ⊕ W_neigh mean(x_N(v))``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.lin_self = Linear(in_features, out_features, bias=True, rng=rng)
        self.lin_neigh = Linear(in_features, out_features, bias=False, rng=rng)

    def forward(self, x: Tensor, prop: Propagation) -> Tensor:
        matrix, transpose = prop.operator("row")
        own = self.lin_self(prop.self_rows(x))
        if _transform_first(self.lin_neigh, x):
            return own + spmm(matrix, self.lin_neigh(x), **transpose)
        return own + self.lin_neigh(spmm(matrix, x, **transpose))


class GATConv(Module):
    """Graph attention layer (Velickovic et al.) with multi-head attention.

    Heads are concatenated when ``concat_heads`` (hidden layers) and averaged
    otherwise (output layer), matching the reference implementation.

    The per-node terms are ``x @ (W·a)`` (:meth:`attention_terms`), the
    per-edge logits take two products (gathers of those terms by
    ``gather_src`` / ``gather_dst`` of :func:`edge_operators`) and the
    aggregation one per head: :func:`attention_spmm` multiplies ``h`` by
    the block's structure with the head's attention as the values, so the
    ``e × heads·out_features`` per-edge messages are never formed.  No sum
    over a head's width runs per vertex or per edge: the attention reads
    ``h`` only through :func:`attention_spmm`'s per-head contractions.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        heads: int = 4,
        concat_heads: bool = True,
        negative_slope: float = 0.2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if heads <= 0:
            raise ValueError("heads must be positive")
        rng = rng or np.random.default_rng()
        self.heads = heads
        self.out_features = out_features
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        self.weight = Parameter(
            glorot_uniform(in_features, heads * out_features, rng=rng), name="weight"
        )
        self.att_src = Parameter(
            glorot_uniform(heads, out_features, rng=rng) * 0.5, name="att_src"
        )
        self.att_dst = Parameter(
            glorot_uniform(heads, out_features, rng=rng) * 0.5, name="att_dst"
        )
        self.bias = Parameter(
            zeros(heads * out_features if concat_heads else out_features), name="bias"
        )

    def forward(self, x: Tensor, prop: Propagation) -> Tensor:
        edges = prop.edges()
        gather_src, scatter_src, gather_dst, scatter_dst = edges
        n_in, n_out = gather_src.shape[1], scatter_dst.shape[0]
        h = (x @ self.weight).reshape(n_in, self.heads, self.out_features)

        # Per-edge logits e_uv = a_s·h_u + a_d·h_v from the per-node terms.
        alpha_src, alpha_dst = self.attention_terms(x, prop)
        logits = leaky_relu(
            spmm(gather_src, alpha_src, transposed=scatter_src)
            + spmm(gather_dst, alpha_dst, transposed=scatter_dst),
            self.negative_slope,
        )
        att = segment_softmax(logits, scatter_dst.indptr)
        out = attention_spmm(h, att, edges)  # (n_out, heads, out_features)

        if self.concat_heads:
            return out.reshape(n_out, self.heads * self.out_features) + self.bias
        return out.mean(axis=1) + self.bias

    def attention_terms(self, x: Tensor, prop) -> tuple[Tensor, Tensor]:
        """``a_s·h_u`` for every input row and ``a_d·h_v`` for every output
        row, each ``(rows, heads)``, as ``x @ (W·a)``: each head's
        ``in × width`` block of ``weight`` is contracted with its attention
        vector first, so no ``rows × heads × width`` array is formed."""
        weight = self.weight.reshape(-1, self.heads, self.out_features)
        w_src = (weight * self.att_src).sum(axis=2)  # (in, heads)
        w_dst = (weight * self.att_dst).sum(axis=2)
        return x @ w_src, prop.self_rows(x) @ w_dst
