"""Fleet dispatcher: remote executors' side of the profiling queue.

:class:`FleetDispatcher` gives remote executors a hold on the pending queue
of a :class:`~repro.runtime.parallel.ProfilingService`.  The service's own
execution loop (``ProfilingService._execute``) publishes every key nobody
has queued there and trains whatever of its own no live executor holds; the
dispatcher only hands out, times and resolves keys:

1. Executors long-poll :meth:`claim`, which leases a same-graph batch off
   the head of the queue (``ProfilingService.lease``) under a
   :class:`~repro.serving.fleet.leases.Lease`, first come first served.
2. :meth:`commit` resolves each key through ``service.commit`` — the path
   the service's own runs take — so memory/store/budget invariants and the
   dedup cannot diverge.  Commits are idempotent twice over: a retried POST
   replays its recorded outcome via the idempotency key, and a key that
   already has a record (an expired lease's zombie finishing late, after
   the caller or another executor landed it) is counted as a duplicate and
   not published again.
3. Missed heartbeats expire leases (:meth:`_sweep`): the keys go back to
   the queue (``ProfilingService.requeue``), where another executor claims
   them — or, once no executor is live, the calling thread trains them
   itself.  A killed executor costs wall-clock, never runs, and a dead
   fleet never stalls a batch.

The queue and its format belong to the service, under the service's lock;
a lease is issued under it (the lease table is a leaf).  The dispatcher's
own lock guards only its replay table and sweeper, and is never held while
another lock is taken.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from repro.config.settings import TaskSpec, TrainingConfig
from repro.errors import ProtocolError, ServingError, UnknownExecutorError
from repro.graphs.csr import CSRGraph
from repro.serving.fleet.leases import LeaseTable
from repro.serving.fleet.registry import ExecutorInfo, ExecutorRegistry
from repro.serving.metrics import (
    FLEET_CLAIMS,
    FLEET_COMMIT_DUPLICATES,
    FLEET_COMMITS,
    FLEET_HEARTBEAT_AGE_SECONDS,
    FLEET_LEASE_EXPIRIES,
    MetricsRegistry,
)
from repro.wire import WireMessage

__all__ = ["ClaimGrant", "CommitOutcome", "FleetDispatcher"]

#: ceiling on one claim long-poll's server-side wait (mirrors the
#: transport's MAX_POLL_SECONDS without importing the wire layer).
_MAX_CLAIM_POLL = 30.0

#: most candidates handed out per claim.  Small batches bound how much work
#: one executor death re-queues; large ones amortize HTTP round trips.
_MAX_BATCH = 8


@dataclass(frozen=True)
class ClaimGrant(WireMessage):
    """One claim round's outcome: a leased batch, or nothing pending
    (``lease_id`` null) — also the ``POST /v1/fleet/claim`` response.

    ``configs`` are key-aligned with ``keys``.  ``fingerprint`` names the
    graph: executors resolve it locally by dataset name when the
    fingerprints match, else fetch it from ``/v1/fleet/graph/<fingerprint>``.
    """

    lease_id: str | None
    ttl: float
    task: TaskSpec | None
    dataset: str | None
    fingerprint: str | None
    keys: tuple[str, ...] = ()
    configs: tuple[TrainingConfig, ...] = ()

    def __post_init__(self) -> None:
        if len(self.keys) != len(self.configs):
            raise ProtocolError("claim keys/configs are not the same length")

    @property
    def empty(self) -> bool:
        return self.lease_id is None

    @classmethod
    def none(cls, ttl: float) -> "ClaimGrant":
        return cls(None, ttl, task=None, dataset=None, fingerprint=None)


@dataclass(frozen=True)
class CommitOutcome(WireMessage):
    """What one commit did: fresh records accepted, duplicates folded, and
    whether this response was replayed from the idempotency table — also
    the ``POST /v1/fleet/commit`` response."""

    accepted: int
    duplicates: int
    replayed: bool = False


class FleetDispatcher:
    """Work-pull dispatcher between a service's pending queue and remote
    executors.

    Parameters
    ----------
    service:
        The :class:`~repro.runtime.parallel.ProfilingService` whose queue
        this dispatcher serves; attaching installs the registry's liveness
        as ``service.fleet_live``, so the service's loop leaves pending keys
        to the fleet while any executor is live.
    lease_ttl:
        Seconds a claimed batch stays leased without a heartbeat.  Also
        derives the heartbeat interval executors are told to use
        (``ttl / 3``), the liveness horizon (``ttl``) and the registry
        prune horizon (``5 * ttl``).
    metrics:
        Optional :class:`~repro.serving.metrics.MetricsRegistry` for the
        fleet counters (global and per-executor labeled).
    """

    def __init__(
        self,
        service,
        *,
        lease_ttl: float = 10.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if lease_ttl <= 0:
            raise ServingError("lease_ttl must be positive")
        self.service = service
        self.lease_ttl = float(lease_ttl)
        self.metrics = metrics
        self.registry = ExecutorRegistry()
        self.leases = LeaseTable()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: (executor, idempotency key) -> outcome, replayed on retried POSTs.
        self._replays: OrderedDict[tuple[str, str], CommitOutcome] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._replay_cap = 4096
        #: background lease sweeper; started lazily on first register() so
        #: fleets that never form pay nothing.  Created/read under _lock.
        self._sweeper: threading.Thread | None = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        service.fleet_live = lambda: bool(self.registry.live(self.lease_ttl))

    # ----------------------------------------------------------- membership
    @property
    def heartbeat_interval(self) -> float:
        """How often executors are told to heartbeat (3 beats per TTL)."""
        return self.lease_ttl / 3.0

    def register(
        self, *, workers: int = 1, executor_id: str | None = None
    ) -> ExecutorInfo:
        """Admit (or refresh) an executor and bind its labeled gauges."""
        info = self.registry.register(workers=workers, executor_id=executor_id)
        if self.metrics is not None:
            self.metrics.gauge(
                FLEET_HEARTBEAT_AGE_SECONDS, info.age, executor=info.executor_id
            )
        with self._cond:
            self._ensure_sweeper_locked()
        return info

    def heartbeat(self, executor_id: str) -> int:
        """Refresh liveness and renew the executor's leases; returns how
        many leases were renewed.  Raises :class:`UnknownExecutorError` for
        executors the registry forgot (they must re-register)."""
        self.registry.touch(executor_id)
        return self.leases.renew_owner(executor_id, self.lease_ttl)

    def deregister(self, executor_id: str) -> bool:
        """Graceful exit: drop the executor and re-queue anything it holds."""
        existed = self.registry.deregister(executor_id)
        for lease in self.leases.active():
            if lease.executor_id == executor_id and self.leases.release(
                lease.lease_id
            ):
                self.service.requeue(lease.lease_id, lease.keys)
        if existed and self.metrics is not None:
            self.metrics.drop(executor=executor_id)
        return existed

    # ------------------------------------------------------- executor side
    def claim(
        self,
        executor_id: str,
        *,
        max_candidates: int | None = None,
        timeout: float = 0.0,
    ) -> ClaimGrant:
        """Long-poll for a batch; empty grant when nothing lands in time.

        Grants come off the head of the pending queue; all keys in one
        grant share a task and a graph.
        """
        limit = _MAX_BATCH
        if max_candidates is not None:
            limit = max(1, min(max_candidates, _MAX_BATCH))
        deadline = time.monotonic() + max(0.0, min(timeout, _MAX_CLAIM_POLL))
        poll = max(0.05, min(self.lease_ttl / 4.0, 0.5))

        def issue(keys):
            return self.leases.issue(executor_id, keys, self.lease_ttl).lease_id

        while True:
            # touch() every wake: raises UnknownExecutorError (re-register)
            # if the registry forgot us mid-poll, and keeps a long-polling
            # but otherwise idle executor alive.
            info = self.registry.touch(executor_id)
            # Every wake re-runs the sweep, so keys of expired leases go
            # back on the queue before this claim looks at it.
            self._sweep()
            remaining = deadline - time.monotonic()
            batch = self.service.lease(
                limit, issue, timeout=min(poll, max(0.0, remaining))
            )
            if batch is not None:
                with self._lock:
                    info.claims += 1
                if self.metrics is not None:
                    self.metrics.inc(FLEET_CLAIMS, executor=executor_id)
                return ClaimGrant(
                    lease_id=batch.lease_id,
                    ttl=self.lease_ttl,
                    task=batch.task,
                    dataset=batch.task.dataset,
                    fingerprint=batch.fingerprint,
                    keys=batch.keys,
                    configs=batch.configs,
                )
            if time.monotonic() >= deadline:
                return ClaimGrant.none(self.lease_ttl)

    def commit(
        self,
        executor_id: str,
        lease_id: str | None,
        keys: list,
        records: list,
        *,
        idempotency_key: str | None = None,
    ) -> CommitOutcome:
        """Resolve finished records; idempotent against retries and zombies.

        A retried POST (same executor + idempotency key) replays the
        recorded outcome without touching anything.  Each key resolves
        through ``service.commit``, the dedup the service's own runs pass
        too: a key that already has a record — its lease expired and the
        caller or another executor landed it first — counts as a
        duplicate: no store write, no ``executed`` bump.  The runs are
        deterministic functions of (task, config, graph), so whichever
        resolution wins, the bytes are identical.  Keys of the lease the
        commit leaves out go back to the queue.

        Commits from executors the registry forgot are still accepted: the
        work is done and correct, refusing it would only re-run it.
        """
        if len(keys) != len(records):
            raise ServingError(
                f"commit carries {len(keys)} keys but {len(records)} records"
            )
        try:
            info = self.registry.touch(executor_id)
        except UnknownExecutorError:
            info = None
        replay_key = (
            None
            if idempotency_key is None
            else (executor_id, idempotency_key)
        )
        if replay_key is not None:
            with self._lock:
                known = self._replays.get(replay_key)
            if known is not None:
                return dataclasses.replace(known, replayed=True)
        # Outside the lock: ``service.commit`` writes the store, and a slow
        # disk must not block claims and heartbeats.
        accepted = sum(
            self.service.commit(key, record)
            for key, record in zip(keys, records, strict=True)
        )
        outcome = CommitOutcome(accepted=accepted, duplicates=len(keys) - accepted)
        lease = None if lease_id is None else self.leases.release(lease_id)
        if lease is not None:
            self.service.requeue(lease_id, lease.keys)
        with self._lock:
            if info is not None:
                info.commits += 1
            if replay_key is not None:
                self._replays[replay_key] = outcome
                while len(self._replays) > self._replay_cap:
                    self._replays.popitem(last=False)
        if self.metrics is not None:
            # A forgotten executor bumps only the total: a labeled series
            # would outlive the prune that dropped its others.
            labels = {"executor": executor_id} if info is not None else {}
            self.metrics.inc(FLEET_COMMITS, **labels)
            if outcome.duplicates:
                self.metrics.inc(FLEET_COMMIT_DUPLICATES, outcome.duplicates)
        return outcome

    def graph(self, fingerprint: str) -> CSRGraph:
        """The graph behind one fingerprint (``/v1/fleet/graph/<fp>``): any
        graph the service has keyed candidates on."""
        graph = self.service.graph_for(fingerprint)
        if graph is None:
            raise ServingError(f"unknown graph fingerprint {fingerprint!r}")
        return graph

    # ------------------------------------------------------------- plumbing
    def _ensure_sweeper_locked(self) -> None:  # holds: _lock
        """Start the background lease sweeper on first fleet membership.

        Claim long-polls sweep inline, but a fleet whose every executor
        died (or stopped polling) would otherwise never expire its leases
        or prune its registry; the sweeper guarantees progress regardless.
        """
        if self._sweeper is not None or self._closed:
            return
        self._sweeper = threading.Thread(
            target=self._sweep_loop, name="fleet-sweep", daemon=True
        )
        self._sweeper.start()

    def _sweep_loop(self) -> None:
        poll = max(0.05, self.lease_ttl / 4.0)
        while True:
            with self._cond:
                if self._closed:
                    return
                # Bounded by ``poll`` (a fraction of the lease TTL) so
                # expiry/prune latency is bounded even when no claim is
                # polling; close() flips _closed and notify_all()s, so
                # shutdown never waits a full poll interval.
                self._cond.wait(poll)
            self._sweep()

    def close(self) -> None:
        """Stop the sweeper (idempotent).  Registered executors stay
        registered — the dispatcher can keep serving inline sweeps — but
        no background thread survives this call."""
        with self._cond:
            self._closed = True
            sweeper = self._sweeper
            self._cond.notify_all()
        if sweeper is not None:
            sweeper.join(timeout=5.0)  # outside the lock: the loop needs it

    def _sweep(self) -> None:
        """Expire overdue leases (re-queue their keys) and prune executors
        silent past the horizon (their metrics go with them)."""
        for lease in self.leases.expired():
            self.service.requeue(lease.lease_id, lease.keys)
            info = self.registry.get(lease.executor_id)
            if info is not None:
                with self._lock:
                    info.lease_expiries += 1
            if self.metrics is not None:
                self.metrics.inc(
                    FLEET_LEASE_EXPIRIES, executor=lease.executor_id
                )
        for info in self.registry.prune(self.lease_ttl * 5.0):
            if self.metrics is not None:
                self.metrics.drop(executor=info.executor_id)

    # -------------------------------------------------------------- status
    @property
    def pending_count(self) -> int:
        """Queued keys no lease holds."""
        return self.service.queue_census()[0]

    @property
    def leased_count(self) -> int:
        return self.service.queue_census()[1]

    def status(self) -> dict:
        """Fleet census for ``GET /v1/fleet`` and ``repro fleet status``."""
        held: dict[str, int] = {}
        for lease in self.leases.active():
            held[lease.executor_id] = held.get(lease.executor_id, 0) + len(
                lease.keys
            )
        executors = [
            {
                "executor_id": info.executor_id,
                "workers": info.workers,
                "age_seconds": round(info.age(), 3),
                "claims": info.claims,
                "commits": info.commits,
                "lease_expiries": info.lease_expiries,
                "leased_keys": held.get(info.executor_id, 0),
            }
            for info in self.registry.all()
        ]
        return {
            "executors": executors,
            "pending": self.pending_count,
            "leased": self.leased_count,
        }
