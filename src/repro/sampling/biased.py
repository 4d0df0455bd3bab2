"""Locality-aware biased sampling (2PGraph-style).

2PGraph accelerates training by preferring neighbours that are already
resident on the device, at the cost of a small accuracy drop (paper Fig. 1b).
In the unified abstraction this is just Eq. 2 with the neighbour-selection
probability ``p(η)`` made a function of data locality: vertices inside the
*hot set* (the cache-resident partition) receive sampling weight
``1 + bias_rate * scale`` relative to cold vertices.

``bias_rate`` is the "Biased Sampling Rate" knob of Fig. 3; ``0`` recovers
the unbiased :class:`~repro.sampling.neighbor.NeighborSampler` exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph
from repro.sampling.base import SampleBatch, Sampler, fanout_step

__all__ = ["BiasedNeighborSampler", "hot_set_weights"]

#: relative preference multiplier applied at bias_rate=1.0
_MAX_PREFERENCE = 24.0


def hot_set_weights(
    num_nodes: int, hot_nodes: np.ndarray, bias_rate: float
) -> np.ndarray:
    """Per-vertex sampling weights: hot vertices get boosted probability."""
    if not 0.0 <= bias_rate <= 1.0:
        raise SamplingError("bias_rate must lie in [0, 1]")
    weights = np.ones(num_nodes, dtype=np.float64)
    if bias_rate > 0 and hot_nodes.size:
        weights[hot_nodes] = 1.0 + bias_rate * _MAX_PREFERENCE
    return weights


class BiasedNeighborSampler(Sampler):
    """Node-wise sampler whose ``p(η)`` prefers a hot vertex set."""

    name = "biased"

    def __init__(
        self,
        fanouts: list[int],
        *,
        bias_rate: float,
        hot_nodes: np.ndarray | None = None,
    ) -> None:
        if not fanouts:
            raise SamplingError("fanouts must contain at least one hop")
        if any(k <= 0 for k in fanouts):
            raise SamplingError("every fanout must be positive")
        if not 0.0 <= bias_rate <= 1.0:
            raise SamplingError("bias_rate must lie in [0, 1]")
        self.fanouts = [int(k) for k in fanouts]
        self.bias_rate = float(bias_rate)
        self.hot_nodes = (
            np.empty(0, dtype=np.int64)
            if hot_nodes is None
            else np.asarray(hot_nodes, dtype=np.int64)
        )
        self._weights: np.ndarray | None = None
        self._weights_for: int = -1

    def set_hot_nodes(self, hot_nodes: np.ndarray) -> None:
        """Update the hot set (e.g. after a cache refresh)."""
        self.hot_nodes = np.asarray(hot_nodes, dtype=np.int64)
        self._weights = None

    def _weight_vector(self, graph: CSRGraph) -> np.ndarray | None:
        if self.bias_rate == 0.0 or self.hot_nodes.size == 0:
            return None
        if self._weights is None or self._weights_for != graph.num_nodes:
            self._weights = hot_set_weights(
                graph.num_nodes, self.hot_nodes, self.bias_rate
            )
            self._weights_for = graph.num_nodes
        return self._weights

    def sample(
        self, graph: CSRGraph, targets: np.ndarray, *, rng: np.random.Generator
    ) -> SampleBatch:
        targets = self._distinct_targets(graph, targets)
        weights = self._weight_vector(graph)
        frontier = targets
        collected = [targets]
        for k in self.fanouts:
            frontier = fanout_step(graph, frontier, k, weights=weights, rng=rng)
            if frontier.size == 0:
                break
            collected.append(frontier)
        all_nodes = np.concatenate(collected)
        return self._finalize(
            graph,
            targets,
            all_nodes,
            hops=len(self.fanouts),
            sampler=self.name,
            bias_rate=self.bias_rate,
        )

    def expected_hops(self) -> int:
        return len(self.fanouts)

    def fanout_profile(self) -> list[float]:
        return [float(k) for k in self.fanouts]
