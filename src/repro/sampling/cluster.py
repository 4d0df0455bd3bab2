"""Partition-based subgraph sampling (Cluster-GCN style).

Fig. 3 leaves the sampler list open ("Sampler Choices: GraphSAINT,
GraphSAGE, FastGCN, ...").  Cluster-GCN is the natural fourth family: the
graph is pre-partitioned, and each mini-batch is the induced subgraph of a
few partitions.  In the unified Eq. 2 abstraction this is biased sampling
with ``p(η)`` equal to the partition-membership indicator — neighbour
selection probability 1 inside the batch's partitions and 0 outside.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SamplingError
from repro.graphs.csr import CSRGraph
from repro.graphs.partition import bfs_partition
from repro.sampling.base import SampleBatch, Sampler

__all__ = ["ClusterSampler"]


class ClusterSampler(Sampler):
    """Mini-batches are unions of graph partitions containing the targets."""

    name = "cluster"

    def __init__(
        self,
        num_parts: int = 32,
        *,
        parts_per_batch: int = 2,
        partition: np.ndarray | None = None,
        seed: int = 0,
    ) -> None:
        if num_parts <= 0 or parts_per_batch <= 0:
            raise SamplingError("partition counts must be positive")
        self.num_parts = num_parts
        self.parts_per_batch = parts_per_batch
        self._partition = partition
        self._members: list[np.ndarray] | None = None
        self._seed = seed

    def _ensure_partition(self, graph: CSRGraph) -> np.ndarray:
        if self._partition is None or self._partition.shape[0] != graph.num_nodes:
            parts = min(self.num_parts, graph.num_nodes)
            self._partition = bfs_partition(graph, parts, seed=self._seed)
            self._members = None
        if self._members is None:
            # vertices grouped by partition once, not one |V| scan per batch
            order = np.argsort(self._partition, kind="stable")
            sizes = np.bincount(self._partition)
            self._members = np.split(order, np.cumsum(sizes)[:-1])
        return self._partition

    def sample(
        self, graph: CSRGraph, targets: np.ndarray, *, rng: np.random.Generator
    ) -> SampleBatch:
        targets = self._distinct_targets(graph, targets)
        partition = self._ensure_partition(graph)

        # Partitions hosting the most targets are selected for this batch.
        hosted = np.bincount(partition[targets], minlength=len(self._members))
        ranked = np.argsort(hosted)[::-1][: self.parts_per_batch]
        chosen = ranked[hosted[ranked] > 0]
        all_nodes = np.concatenate([targets, *(self._members[p] for p in chosen)])

        batch = self._finalize(
            graph,
            targets,
            all_nodes,
            hops=1,
            sampler=self.name,
            partitions=chosen.tolist(),
        )
        # Cluster-GCN trains on every (training) vertex of the selected
        # partitions, not just the scheduled targets; the runtime backend
        # masks non-training vertices out of the loss.
        batch.target_index = np.arange(batch.num_nodes, dtype=np.int64)
        batch.num_targets = batch.num_nodes
        return batch

    def expected_hops(self) -> int:
        return 1

    def fanout_profile(self) -> list[float]:
        """One flood-fill hop bounded by partition size (Eq. 2 view)."""
        return [float(self.parts_per_batch)]
