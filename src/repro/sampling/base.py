"""Unified sampler abstraction (paper Sec. 3.2, Eq. 2).

Every sampling strategy — node-wise, layer-wise, subgraph-wise, biased — is
expressed as repeated *fanout steps*: from a frontier ``B^{l-1}``, select up
to ``k_l`` neighbours per vertex with probability ``p(η)``, and union the
result into the mini-batch.  :func:`fanout_step` implements one such step
with weighted sampling-without-replacement (Efraimidis–Spirakis keys), which
is exactly the indicator ``I_p(η)`` of Eq. 2; subclasses differ only in how
they schedule steps and shape ``p(η)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph

__all__ = ["SampleBatch", "Sampler", "fanout_step", "distinct_sorted", "selection_keys"]


@dataclass
class SampleBatch:
    """One mini-batch ``G_i(V_i, E_i)`` produced by a sampler.

    ``nodes`` are the global vertex ids of the subgraph rows (sorted).
    ``target_index`` locates the loss vertices ``B0_i`` inside the subgraph.
    """

    subgraph: CSRGraph
    nodes: np.ndarray
    target_index: np.ndarray
    num_targets: int
    hops: int
    meta: dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        """Mini-batch size ``|V_i|`` — the estimator's key variable."""
        return self.subgraph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.subgraph.num_edges


def distinct_sorted(ids: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted distinct vertex ids through a ``|V|``-sized bitmap.

    numpy 2.x answers ``np.unique`` on integers with a hash table; for ids
    bounded by ``|V|`` one scatter and one scan are an order of magnitude
    cheaper, and every sampler unions its picks this way (the device cache
    its misses too).  ``ids`` must lie in ``[0, num_nodes)``: a negative id
    wraps, so callers range-check what they did not produce themselves.
    """
    seen = np.zeros(num_nodes, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen)


def selection_keys(
    count: int, weights: np.ndarray | None, rng: np.random.Generator
) -> np.ndarray:
    """Efraimidis–Spirakis keys in ``[0, 1)``: the ``k`` largest of a set
    are a weighted sample of it without replacement (uniform when
    ``weights`` is ``None``)."""
    keys = rng.random(count)
    if weights is None:
        return keys
    if np.any(weights <= 0):
        raise SamplingError("bias weights must be strictly positive")
    return keys ** (1.0 / weights)


def fanout_step(
    graph: CSRGraph,
    frontier: np.ndarray,
    k: int,
    *,
    weights: np.ndarray | None = None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample up to ``k`` distinct neighbours of every frontier vertex.

    ``weights`` (per global vertex, positive) bias the neighbour choice —
    the ``p(η)`` hook of Eq. 2.  Uses Efraimidis–Spirakis exponential keys so
    the whole step is vectorised: neighbour ``u`` of ``v`` is kept when its
    key ranks in the top ``k`` of ``v``'s neighbourhood.  Returns the sorted
    union of the picks.
    """
    if k <= 0:
        raise SamplingError("fanout k must be positive")
    frontier = np.asarray(frontier, dtype=np.int64)
    _, dst = graph.gather_neighborhoods(frontier)
    if dst.size == 0:
        return np.empty(0, dtype=np.int64)
    keys = selection_keys(dst.size, None if weights is None else weights[dst], rng)

    # The edges arrive grouped by frontier position, so one sort of
    # ``group + key`` ranks every neighbourhood at once: groups keep their
    # slots and keys ascend inside each, which puts a group's top ``k`` in
    # the last ``k`` slots before its end.
    counts = graph.degrees[frontier]
    group = np.repeat(np.arange(frontier.size), counts)
    order = np.argsort(group + keys)
    ends = np.repeat(np.cumsum(counts), counts)
    chosen = order.take(np.flatnonzero(ends - np.arange(dst.size) <= k))
    return distinct_sorted(dst.take(chosen), graph.num_nodes)


class Sampler:
    """Base class: expands target vertices ``B0`` into a :class:`SampleBatch`."""

    name = "base"

    def sample(
        self, graph: CSRGraph, targets: np.ndarray, *, rng: np.random.Generator
    ) -> SampleBatch:
        """Produce the mini-batch for targets ``B0_i``."""
        raise NotImplementedError

    def expected_hops(self) -> int:
        """Number of fanout steps (τ exponent context for Eq. 12)."""
        raise NotImplementedError

    def fanout_profile(self) -> list[float]:
        """Per-hop expected fanout ``k_l`` — feeds E[|V_i|] of Eq. 12."""
        raise NotImplementedError

    @staticmethod
    def _distinct_targets(graph: CSRGraph, targets: np.ndarray) -> np.ndarray:
        """``B0`` as sorted distinct vertex ids of ``graph``."""
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            raise SamplingError("empty target set")
        # checked before the bitmap is indexed, where -1 would wrap
        if targets.min() < 0 or targets.max() >= graph.num_nodes:
            raise SamplingError("target vertex out of range")
        return distinct_sorted(targets, graph.num_nodes)

    def _finalize(
        self,
        graph: CSRGraph,
        targets: np.ndarray,
        all_nodes: np.ndarray,
        hops: int,
        **meta,
    ) -> SampleBatch:
        """Induce the batch topology on ``all_nodes`` and locate the
        (sorted, distinct) ``targets`` inside it."""
        subgraph, nodes = graph.induced_subgraph(all_nodes, with_data=False)
        return SampleBatch(
            subgraph=subgraph,
            nodes=nodes,
            target_index=np.searchsorted(nodes, targets),
            num_targets=int(targets.size),
            hops=hops,
            meta=meta,
        )
