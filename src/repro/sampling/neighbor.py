"""Node-wise neighbour sampling (GraphSAGE-style).

The canonical instantiation of Eq. 2: hop ``l`` fans out ``k_l`` uniformly
chosen neighbours from every frontier vertex.  The ``hop_list`` (paper
Fig. 3's "Hop List" knob) is the per-layer fanout vector.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph
from repro.sampling.base import SampleBatch, Sampler, fanout_step

__all__ = ["NeighborSampler"]


class NeighborSampler(Sampler):
    """Uniform node-wise sampler with a per-hop fanout list."""

    name = "sage"

    def __init__(self, fanouts: list[int]) -> None:
        if not fanouts:
            raise SamplingError("fanouts must contain at least one hop")
        if any(k <= 0 for k in fanouts):
            raise SamplingError("every fanout must be positive")
        self.fanouts = [int(k) for k in fanouts]

    def sample(
        self, graph: CSRGraph, targets: np.ndarray, *, rng: np.random.Generator
    ) -> SampleBatch:
        targets = self._distinct_targets(graph, targets)
        frontier = targets
        collected = [targets]
        for k in self.fanouts:
            frontier = fanout_step(graph, frontier, k, rng=rng)
            if frontier.size == 0:
                break
            collected.append(frontier)
        all_nodes = np.concatenate(collected)
        return self._finalize(
            graph, targets, all_nodes, hops=len(self.fanouts), sampler=self.name
        )

    def expected_hops(self) -> int:
        return len(self.fanouts)

    def fanout_profile(self) -> list[float]:
        return [float(k) for k in self.fanouts]
