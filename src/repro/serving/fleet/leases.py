"""Lease table: every claimed batch carries a deadline.

Owner death inside one process (a cancelled job's queued keys are dropped,
and a waiter queues them again) generalizes here to process death: a claim
hands the executor a :class:`Lease` over its keys with a TTL, heartbeats
renew it, and a lease whose deadline passes without a commit is *expired* —
the dispatcher puts the keys back on the pending queue for someone else.  A
killed executor therefore loses wall-clock time, never runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["Lease", "LeaseTable"]


@dataclass(frozen=True)
class Lease:
    """One executor's time-bounded hold over a batch of candidate keys."""

    lease_id: str
    executor_id: str
    keys: tuple[str, ...]
    issued_at: float
    deadline: float

    def expired(self, now: float | None = None) -> bool:
        return (time.monotonic() if now is None else now) > self.deadline


class LeaseTable:
    """Thread-safe table of outstanding leases.

    The table only tracks time: which keys a lease covers and when it dies.
    What expiry *means* (re-queue the keys, count the loss) is the
    dispatcher's business — keeping the table policy-free keeps it
    trivially correct.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._leases: dict[str, Lease] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock

    def issue(
        self, executor_id: str, keys: list[str], ttl: float
    ) -> Lease:
        """Grant one lease over ``keys`` expiring ``ttl`` seconds from now."""
        now = time.monotonic()
        with self._lock:
            lease = Lease(
                lease_id=f"lease-{self._next_id:06d}",
                executor_id=executor_id,
                keys=tuple(keys),
                issued_at=now,
                deadline=now + ttl,
            )
            self._next_id += 1
            self._leases[lease.lease_id] = lease
            return lease

    def renew_owner(self, executor_id: str, ttl: float) -> int:
        """Push every lease held by ``executor_id`` out to ``now + ttl``
        (the heartbeat path); returns how many were renewed."""
        deadline = time.monotonic() + ttl
        renewed = 0
        with self._lock:
            for lease_id, lease in list(self._leases.items()):
                if lease.executor_id != executor_id:
                    continue
                if lease.deadline < deadline:
                    self._leases[lease_id] = Lease(
                        lease_id=lease.lease_id,
                        executor_id=lease.executor_id,
                        keys=lease.keys,
                        issued_at=lease.issued_at,
                        deadline=deadline,
                    )
                renewed += 1
        return renewed

    def release(self, lease_id: str) -> Lease | None:
        """Drop one lease (commit landed); returns it, or ``None``."""
        with self._lock:
            return self._leases.pop(lease_id, None)

    def get(self, lease_id: str) -> Lease | None:
        with self._lock:
            return self._leases.get(lease_id)

    def expired(self) -> list[Lease]:
        """Pop and return every lease past its deadline (oldest first)."""
        now = time.monotonic()
        with self._lock:
            dead = sorted(
                (
                    lease
                    for lease in self._leases.values()
                    if lease.expired(now)
                ),
                key=lambda lease: lease.deadline,
            )
            for lease in dead:
                del self._leases[lease.lease_id]
            return dead

    def active(self) -> list[Lease]:
        """Every outstanding lease (point-in-time copy, id-sorted)."""
        with self._lock:
            return sorted(
                self._leases.values(), key=lambda lease: lease.lease_id
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._leases)
