"""Subgraph-wise sampling (GraphSAINT-style random walks).

The paper treats subgraph sampling as "node-wise sampling with many more
hops but a single neighbour fanout per hop" (Sec. 3.2).  We implement the
random-walk variant: from every root, walk ``walk_length`` steps choosing one
uniform neighbour per step; the union of visited vertices induces the
training subgraph, and the loss is computed on every labelled vertex in it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph
from repro.sampling.base import SampleBatch, Sampler

__all__ = ["SaintSampler"]


class SaintSampler(Sampler):
    """GraphSAINT random-walk subgraph sampler."""

    name = "saint"

    def __init__(self, walk_length: int = 4, *, loss_on_all: bool = True) -> None:
        if walk_length <= 0:
            raise SamplingError("walk_length must be positive")
        self.walk_length = int(walk_length)
        self.loss_on_all = loss_on_all

    def _random_walk(
        self, graph: CSRGraph, roots: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Visited vertices of simultaneous walks (vectorised per step)."""
        current = roots.copy()
        visited = [roots]
        for _ in range(self.walk_length):
            degrees = graph.degrees[current]
            alive = degrees > 0
            if not np.any(alive):
                break
            # One uniform neighbour per alive walker.
            offset = (rng.random(current.size) * degrees).astype(np.int64)
            offset = np.minimum(offset, np.maximum(degrees - 1, 0))
            # Dead walkers are masked out below, but their gather still
            # evaluates; an isolated node at the CSR tail has
            # indptr[current] == len(indices), so clamp before indexing.
            slot = np.minimum(
                graph.indptr[current] + offset, graph.indices.size - 1
            )
            nxt = graph.indices[slot]
            current = np.where(alive, nxt, current)
            visited.append(current.copy())
        return np.concatenate(visited)

    def sample(
        self, graph: CSRGraph, targets: np.ndarray, *, rng: np.random.Generator
    ) -> SampleBatch:
        roots = self._distinct_targets(graph, targets)
        all_nodes = self._random_walk(graph, roots, rng)
        batch = self._finalize(
            graph, roots, all_nodes, hops=self.walk_length, sampler=self.name
        )
        if self.loss_on_all and graph.labels is not None:
            # GraphSAINT trains on the entire subgraph, not just the roots.
            batch.target_index = np.arange(batch.num_nodes, dtype=np.int64)
            batch.num_targets = batch.num_nodes
        return batch

    def expected_hops(self) -> int:
        return self.walk_length

    def fanout_profile(self) -> list[float]:
        """One neighbour per hop — the paper's special case of Eq. 2."""
        return [1.0] * self.walk_length
