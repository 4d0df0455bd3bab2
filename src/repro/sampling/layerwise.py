"""Layer-wise importance sampling (FastGCN-style).

FastGCN fixes the *total* number of vertices sampled per layer (``Δ_l``)
instead of a per-vertex fanout, drawing them with probability proportional to
(squared) degree.  The paper folds this into the unified abstraction through
Eq. 3: the effective per-vertex fanout is ``E[k_l] = Δ_l / |B^{l-1}|`` up to
the shared-neighbour coefficient ``μ``, which is how
:meth:`LayerSampler.fanout_profile` reports it to the estimator.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph
from repro.sampling.base import SampleBatch, Sampler, distinct_sorted, selection_keys

__all__ = ["LayerSampler"]


class LayerSampler(Sampler):
    """FastGCN-style sampler: ``Δ_l`` vertices per layer, degree-weighted."""

    name = "fastgcn"

    def __init__(self, layer_sizes: list[int], *, importance: bool = True) -> None:
        if not layer_sizes:
            raise SamplingError("layer_sizes must contain at least one layer")
        if any(s <= 0 for s in layer_sizes):
            raise SamplingError("every layer size must be positive")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.importance = importance
        self._last_batch_hint = max(self.layer_sizes)

    def sample(
        self, graph: CSRGraph, targets: np.ndarray, *, rng: np.random.Generator
    ) -> SampleBatch:
        targets = self._distinct_targets(graph, targets)
        self._last_batch_hint = targets.size
        frontier = targets
        collected = [targets]
        for delta in self.layer_sizes:
            _, dst = graph.gather_neighborhoods(frontier)
            if dst.size == 0:
                break
            frontier = distinct_sorted(dst, graph.num_nodes)
            if delta < frontier.size:
                weights = (
                    graph.degrees[frontier].astype(np.float64) ** 2
                    if self.importance
                    else None
                )
                keys = selection_keys(frontier.size, weights, rng)
                top = np.argpartition(keys, frontier.size - delta)[-delta:]
                frontier = frontier[np.sort(top)]
            collected.append(frontier)
        all_nodes = np.concatenate(collected)
        return self._finalize(
            graph,
            targets,
            all_nodes,
            hops=len(self.layer_sizes),
            sampler=self.name,
        )

    def expected_hops(self) -> int:
        return len(self.layer_sizes)

    def fanout_profile(self) -> list[float]:
        """Eq. 3: effective fanout ``Δ_l / |B^{l-1}|`` per layer."""
        profile: list[float] = []
        prev = float(max(self._last_batch_hint, 1))
        for delta in self.layer_sizes:
            profile.append(delta / prev)
            prev = float(delta)
        return profile
