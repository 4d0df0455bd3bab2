"""Compressed-sparse-row graph container.

This is the ``G(V, E)`` object of the paper (Sec. 2.1).  Everything downstream
— samplers, the device cache, the runtime backend and the performance
estimator — consumes graphs through this structure, so it is deliberately
small, immutable and numpy-native.

The adjacency is stored once in CSR form (``indptr``/``indices``).  Node
features and labels are optional dense arrays; samplers only need topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph", "dedup_edges", "row_slots"]


def row_slots(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a CSR index array of every entry of ``rows``, row by row
    in the order given, and the row pointer of that selection."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    bounds = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    flat = np.arange(bounds[-1], dtype=np.int64)
    flat += np.repeat(starts - bounds[:-1], counts)
    return flat, bounds


def dedup_edges(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``(src, dst)`` pairs lexicographically and drop duplicates.

    Uses :func:`np.lexsort` on the two columns directly rather than a flat
    ``src * num_nodes + dst`` key, which overflows int64 once
    ``num_nodes**2`` exceeds ``2**63`` and then silently merges or misorders
    distinct edges.  Safe for arbitrarily large node ids.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if src.size:
        unique = np.concatenate(
            [[True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
        )
        src, dst = src[unique], dst[unique]
    return src, dst


@dataclass(frozen=True)
class CSRGraph:
    """An undirected (symmetrised) graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; row pointer.
    indices:
        ``int64`` array of length ``num_edges``; column indices (neighbour
        ids) sorted within each row.
    features:
        Optional ``float32`` node-feature matrix of shape
        ``(num_nodes, feature_dim)``.
    labels:
        Optional ``int64`` node-label vector of length ``num_nodes``.
    num_classes:
        Number of distinct labels; ``0`` when the graph is unlabelled.
    name:
        Human-readable dataset name used in reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray | None = None
    labels: np.ndarray | None = None
    num_classes: int = 0
    name: str = "graph"
    _degrees: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _profile: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        self._validate()
        object.__setattr__(self, "_degrees", np.diff(self.indptr))

    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise GraphError("indptr must be a 1-D array with at least one entry")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr[-1]={self.indptr[-1]} does not match "
                f"len(indices)={self.indices.size}"
            )
        n = self.num_nodes
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphError("edge endpoint out of range")
        if self.features is not None and self.features.shape[0] != n:
            raise GraphError("features row count must equal num_nodes")
        if self.labels is not None and self.labels.shape[0] != n:
            raise GraphError("labels length must equal num_nodes")

    # ------------------------------------------------------------------ views
    @property
    def num_nodes(self) -> int:
        """Number of vertices ``|V|``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edge slots ``|E|`` (twice the undirected count)."""
        return self.indices.size

    @property
    def feature_dim(self) -> int:
        """Attribute dimensionality ``n_attr`` (0 when featureless)."""
        return 0 if self.features is None else self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        return self._degrees

    @property
    def profile(self):
        """The :class:`~repro.graphs.profiling.GraphProfile` of this graph
        (computed on first use, then cached).  Two threads racing on the
        first use compute equal profiles; either one is kept."""
        if self._profile is None:
            from repro.graphs import profiling  # it imports this module

            object.__setattr__(self, "_profile", profiling.profile_graph(self))
        return self._profile

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node`` as a read-only slice."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: int) -> int:
        """Degree of a single vertex."""
        if not 0 <= node < self.num_nodes:
            raise GraphError(f"node {node} out of range [0, {self.num_nodes})")
        return int(self._degrees[node])

    # ------------------------------------------------------------- subgraphs
    def gather_neighborhoods(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """All directed edges leaving ``nodes`` as ``(src, dst)`` arrays.

        Fully vectorised; the workhorse behind the samplers.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        flat, bounds = row_slots(self.indptr, nodes)
        return np.repeat(nodes, np.diff(bounds)), self.indices[flat]

    def induced_subgraph(
        self, nodes: np.ndarray, *, with_data: bool = True
    ) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``nodes``.

        Returns the subgraph (with rows relabelled ``0..len(nodes)-1`` in
        sorted-global-id order, and features/labels sliced when present) and
        the original node ids, so callers can map embeddings back.

        ``with_data=False`` returns topology only.  That is what a sampler
        hands over: the training step gathers the feature rows it reads
        itself, so slicing them into every mini-batch would copy them twice.

        Membership and de-duplication share one ``|V|``-sized bitmap, and
        the relabel map is only read at member positions, so it is never
        filled.  The kept slots are selected and relabelled by index passes
        (``flatnonzero`` and ``take``), never a boolean-mask copy.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise GraphError("subgraph node id out of range")
        member = np.zeros(self.num_nodes, dtype=bool)
        member[nodes] = True
        nodes = np.flatnonzero(member)
        lookup = np.empty(self.num_nodes, dtype=np.int64)
        lookup[nodes] = np.arange(nodes.size, dtype=np.int64)

        flat, bounds = row_slots(self.indptr, nodes)
        dst = self.indices.take(flat)
        kept = np.flatnonzero(member.take(dst))
        # A row keeps the edges between its first and last slot, so its
        # pointer is the number of kept slots before its old boundary.
        # Rows stay sorted: every construction path emits row-sorted
        # indices and the relabel map is monotonic.
        features = self.features if with_data else None
        labels = self.labels if with_data else None
        sub = CSRGraph(
            indptr=np.searchsorted(kept, bounds),
            indices=lookup.take(dst.take(kept)),
            features=None if features is None else features[nodes],
            labels=None if labels is None else labels[nodes],
            num_classes=self.num_classes,
            name=f"{self.name}:sub",
        )
        return sub, nodes

    # --------------------------------------------------------------- exports
    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays of every directed edge slot."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self._degrees)
        return src, self.indices.copy()

    def memory_bytes(self) -> int:
        """Host memory footprint of topology + features + labels."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.features is not None:
            total += self.features.nbytes
        if self.labels is not None:
            total += self.labels.nbytes
        return total

    @staticmethod
    def from_edges(
        num_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
        *,
        features: np.ndarray | None = None,
        labels: np.ndarray | None = None,
        num_classes: int = 0,
        name: str = "graph",
        symmetrize: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an edge list, deduplicating and symmetrising.

        Self-loops are dropped; parallel edges collapse to one.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphError("src and dst must have identical shapes")
        if src.size and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes
        ):
            raise GraphError("edge endpoint out of range")
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = dedup_edges(src, dst)
        counts = np.bincount(src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSRGraph(
            indptr=indptr,
            indices=dst,
            features=features,
            labels=labels,
            num_classes=num_classes,
            name=name,
        )
