"""Executor registry: who is in the fleet.

The registry is the dispatcher's membership view — executors register over
``/v1/fleet/register``, refresh themselves with every heartbeat/claim/commit
(:meth:`ExecutorRegistry.touch`), and fall out either explicitly
(:meth:`deregister`) or by going silent past the prune horizon.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import UnknownExecutorError

__all__ = ["ExecutorInfo", "ExecutorRegistry"]


@dataclass
class ExecutorInfo:
    """One registered executor's bookkeeping row (registry-owned)."""

    executor_id: str
    workers: int
    registered_at: float
    last_seen: float
    claims: int = 0
    commits: int = 0
    lease_expiries: int = 0
    generation: int = 0  # bumped on every re-registration of the same id

    def age(self, now: float | None = None) -> float:
        """Seconds since this executor was last heard from."""
        return (time.monotonic() if now is None else now) - self.last_seen


class ExecutorRegistry:
    """Thread-safe membership table of the fleet.

    ``touch`` is the liveness primitive: every fleet RPC from an executor
    refreshes its ``last_seen``, and :meth:`live`/:meth:`prune` interpret
    silence against the caller-supplied horizons (the dispatcher derives
    both from its lease TTL).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executors: dict[str, ExecutorInfo] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock

    def register(
        self, *, workers: int = 1, executor_id: str | None = None
    ) -> ExecutorInfo:
        """Admit an executor; re-registering a known id refreshes it.

        Re-registration is the recovery path after a server restart or a
        heartbeat gap (:class:`UnknownExecutorError` tells the executor to
        come back through here), so it must be idempotent: the same id
        keeps its counters, only liveness resets.
        """
        now = time.monotonic()
        with self._lock:
            if executor_id is None:
                executor_id = f"ex-{self._next_id:04d}"
                self._next_id += 1
            info = self._executors.get(executor_id)
            if info is None:
                info = ExecutorInfo(
                    executor_id=executor_id,
                    workers=max(1, workers),
                    registered_at=now,
                    last_seen=now,
                )
                self._executors[executor_id] = info
            else:
                info.workers = max(1, workers)
                info.last_seen = now
                info.generation += 1
            return info

    def touch(self, executor_id: str) -> ExecutorInfo:
        """Refresh liveness; raises :class:`UnknownExecutorError` so an
        unregistered (restarted-server, pruned) executor re-registers."""
        with self._lock:
            info = self._executors.get(executor_id)
            if info is None:
                raise UnknownExecutorError(
                    f"unknown executor {executor_id!r}; re-register"
                )
            info.last_seen = time.monotonic()
            return info

    def get(self, executor_id: str) -> ExecutorInfo | None:
        with self._lock:
            return self._executors.get(executor_id)

    def deregister(self, executor_id: str) -> bool:
        """Remove an executor (graceful shutdown); ``True`` if it existed."""
        with self._lock:
            return self._executors.pop(executor_id, None) is not None

    def live(self, horizon: float) -> list[ExecutorInfo]:
        """Executors heard from within ``horizon`` seconds, id-sorted."""
        now = time.monotonic()
        with self._lock:
            return sorted(
                (
                    info
                    for info in self._executors.values()
                    if now - info.last_seen <= horizon
                ),
                key=lambda info: info.executor_id,
            )

    def prune(self, horizon: float) -> list[ExecutorInfo]:
        """Drop executors silent past ``horizon``; returns what was removed."""
        now = time.monotonic()
        removed = []
        with self._lock:
            for executor_id in list(self._executors):
                info = self._executors[executor_id]
                if now - info.last_seen > horizon:
                    removed.append(self._executors.pop(executor_id))
        return removed

    def all(self) -> list[ExecutorInfo]:
        """Every registered executor, id-sorted (point-in-time copy)."""
        with self._lock:
            return sorted(
                self._executors.values(), key=lambda info: info.executor_id
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._executors)
