"""Device feature cache — the transmission-strategy abstraction (Sec. 3.2).

Redundant device memory stores feature rows of hot vertices so they need no
host-device transfer.  The paper abstracts every transmission strategy as:
lookup which part of the mini-batch is cached, transfer the rest, then update
the cache per policy.  :class:`DeviceCache` implements that contract with the
policies of Fig. 3:

* ``static`` — PaGraph: prefilled with the highest-priority (degree) vertices
  once, never updated (``cache update policy = None``);
* ``fifo`` / ``lru`` — dynamic policies that admit missed vertices and evict
  the oldest / least-recently-used rows;
* ``none`` — no cache (PyG baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import HardwareError
from repro.sampling.base import distinct_sorted

__all__ = ["CacheStats", "DeviceCache", "CACHE_POLICIES"]

CACHE_POLICIES = ("none", "static", "fifo", "lru")


@dataclass
class CacheStats:
    """Running counters; ``hit_rate`` is the ``hit`` of Eqs. 5-6."""

    lookups: int = 0
    hits: int = 0
    admitted: int = 0
    evicted: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DeviceCache:
    """Feature-row cache of ``capacity`` vertices with a pluggable policy."""

    def __init__(
        self,
        num_nodes: int,
        capacity: int,
        *,
        policy: str = "static",
        priority: np.ndarray | None = None,
    ) -> None:
        if policy not in CACHE_POLICIES:
            raise HardwareError(f"unknown cache policy {policy!r}; known: {CACHE_POLICIES}")
        if capacity < 0 or capacity > num_nodes:
            raise HardwareError("capacity must lie in [0, num_nodes]")
        if policy != "none" and capacity == 0:
            policy = "none"
        self.num_nodes = num_nodes
        self.capacity = int(capacity)
        self.policy = policy
        self.stats = CacheStats()
        self._resident = np.zeros(num_nodes, dtype=bool)
        # LRU/FIFO bookkeeping: insertion or last-use tick per resident vertex.
        self._tick = 0
        self._stamp = np.full(num_nodes, -1, dtype=np.int64)
        self._count = 0
        if policy == "static":
            if priority is None:
                raise HardwareError("static policy requires a priority order")
            head = np.asarray(priority, dtype=np.int64)[: self.capacity]
            self._resident[head] = True
            self._count = head.size

    # ---------------------------------------------------------------- queries
    @property
    def occupancy(self) -> int:
        return self._count

    def hot_nodes(self) -> np.ndarray:
        """Currently resident vertex ids (the biased sampler's hot set)."""
        return np.nonzero(self._resident)[0]

    def is_resident(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean residency mask without touching statistics."""
        return self._resident[np.asarray(nodes, dtype=np.int64)]

    # --------------------------------------------------------------- protocol
    def lookup(self, nodes: np.ndarray) -> np.ndarray:
        """Hit mask for a mini-batch; updates hit statistics and LRU stamps."""
        nodes = np.asarray(nodes, dtype=np.int64)
        mask = self._resident[nodes]
        self.stats.lookups += int(nodes.size)
        self.stats.hits += int(mask.sum())
        if self.policy == "lru" and nodes.size:
            self._tick += 1
            self._stamp[nodes[mask]] = self._tick
        return mask

    def update(self, missed: np.ndarray) -> tuple[int, int]:
        """Admit missed vertices per policy; returns ``(admitted, evicted)``.

        ``static`` and ``none`` never change contents (PaGraph's disabled
        update policy); dynamic policies fill free slots first and then evict
        the stalest rows.
        """
        if self.policy in ("none", "static") or self.capacity == 0:
            return 0, 0
        missed = np.asarray(missed, dtype=np.int64)
        # checked before the bitmap is indexed, where -1 would wrap
        if missed.size and (missed.min() < 0 or missed.max() >= self.num_nodes):
            raise HardwareError("missed vertex out of range")
        missed = distinct_sorted(missed, self.num_nodes)
        missed = missed[~self._resident[missed]]
        if missed.size == 0:
            return 0, 0
        self._tick += 1
        if missed.size > self.capacity:
            # Admit only the newest capacity-many; the rest would evict
            # each other within the same batch.
            missed = missed[: self.capacity]

        free = self.capacity - self._count
        evict_needed = max(0, missed.size - free)
        evicted = 0
        if evict_needed:
            resident_ids = np.nonzero(self._resident)[0]
            stamps = self._stamp[resident_ids]
            victims = resident_ids[np.argsort(stamps, kind="stable")[:evict_needed]]
            self._resident[victims] = False
            self._stamp[victims] = -1
            self._count -= victims.size
            evicted = int(victims.size)

        self._resident[missed] = True
        self._stamp[missed] = self._tick
        self._count += int(missed.size)
        self.stats.admitted += int(missed.size)
        self.stats.evicted += evicted
        return int(missed.size), evicted

    def reset_stats(self) -> None:
        """Zero the counters (contents preserved)."""
        self.stats = CacheStats()
