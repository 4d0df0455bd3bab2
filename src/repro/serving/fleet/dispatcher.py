"""Fleet dispatcher: remote executors' side of the profiling queue.

:class:`FleetDispatcher` gives remote executors a hold on the pending queue
of a :class:`~repro.runtime.parallel.ProfilingService`.  The service's own
execution loop (``ProfilingService._execute``) publishes every key nobody
has queued there and trains whatever of its own no live executor holds; the
dispatcher only hands out, times and resolves keys:

1. Executors long-poll :meth:`claim`, which leases a same-graph batch off
   the head of the queue (``ProfilingService.lease``), first come first
   served, after requeuing any lease the idle claimer still holds.
2. :meth:`commit` resolves each key through ``service.commit`` — the path
   the service's own runs take — so memory/store/budget invariants and the
   dedup cannot diverge.  Commits are idempotent twice over: a retried POST
   replays its recorded outcome via the idempotency key, and a key that
   already has a record (an expired lease's zombie finishing late, after
   the caller or another executor landed it) is counted as a duplicate and
   not published again.
3. A lease has no clock of its own: it lives while its executor is live,
   heard from within ``lease_ttl`` by a register, :meth:`touch` (the
   wire's heartbeat), claim or commit.  :meth:`_sweep` hands every lease
   of a silent executor back to the queue (``ProfilingService.requeue``),
   where another executor claims its keys — or, once no executor is live,
   the calling thread trains them itself.  A killed executor costs
   wall-clock, never runs, and a dead fleet never stalls a batch.

A lease's keys live only on the service's queue, under the service's lock.
Everything else the fleet knows — the executors, which executor holds each
lease, the replay table and the sweeper — sits under the dispatcher's one
lock.  The service takes that lock inside its own (``fleet_live()`` and
issuing a lease); the dispatcher never calls into the service, or into the
metrics, while holding it.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass

from repro.config.settings import TaskSpec, TrainingConfig
from repro.errors import ProtocolError, ServingError, UnknownExecutorError
from repro.graphs.csr import CSRGraph
from repro.serving.metrics import (
    FLEET_CLAIMS,
    FLEET_COMMIT_DUPLICATES,
    FLEET_COMMITS,
    FLEET_HEARTBEAT_AGE_SECONDS,
    FLEET_LEASE_EXPIRIES,
    MetricsRegistry,
)
from repro.wire import WireMessage

__all__ = ["ClaimGrant", "CommitOutcome", "ExecutorInfo", "FleetDispatcher"]

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


@dataclass
class ExecutorInfo:
    """One registered executor's row; the dispatcher's ``_lock`` guards it."""

    executor_id: str
    workers: int  # guarded-by: _lock
    last_seen: float  # guarded-by: _lock
    claims: int = 0  # guarded-by: _lock
    commits: int = 0  # guarded-by: _lock
    lease_expiries: int = 0  # guarded-by: _lock


class FleetDispatcher:
    """Work-pull dispatcher between a service's pending queue and remote
    executors.

    Parameters
    ----------
    service:
        The :class:`~repro.runtime.parallel.ProfilingService` whose queue
        this dispatcher serves; attaching installs the fleet's liveness as
        ``service.fleet_live``, so the service's loop leaves pending keys
        to the fleet while any executor is live.
    lease_ttl:
        Seconds an executor — and every lease it holds — stays live
        without being heard from.  Also derives the heartbeat interval
        executors are told to use (``ttl / 3``) and the prune horizon of
        silent executors (``5 * ttl``).
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
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: executor id -> its row, in registration order.
        self._executors: dict[str, ExecutorInfo] = {}  # guarded-by: _lock
        #: lease id -> the executor holding it; the keys are the queue's.
        self._leases: dict[str, str] = {}  # guarded-by: _lock
        self._admitted = self._issued = 0  # id counters; guarded-by: _lock
        #: (executor, idempotency key) -> outcome, replayed on retried POSTs.
        self._replays: OrderedDict[tuple[str, str], CommitOutcome] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._replay_cap = 4096
        #: background lease sweeper; started lazily on first register() so
        #: fleets that never form pay nothing.
        self._sweeper: threading.Thread | None = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        service.fleet_live = self._live

    # ----------------------------------------------------------- membership
    @property
    def heartbeat_interval(self) -> float:
        """How often executors are told to heartbeat (3 beats per TTL)."""
        return self.lease_ttl / 3.0

    def register(
        self, *, workers: int = 1, executor_id: str | None = None
    ) -> ExecutorInfo:
        """Admit an executor and bind its labeled gauge.

        Re-registering a known id is the recovery path after a server
        restart or a prune (:class:`UnknownExecutorError` sends the
        executor back here): the row keeps its counters, and only its
        worker count and liveness reset.  A fresh id skips ids already
        registered.
        """
        with self._cond:
            fresh = executor_id is None
            while fresh and (executor_id is None or executor_id in self._executors):
                executor_id = f"ex-{self._admitted:04d}"
                self._admitted += 1
            info = self._executors.get(executor_id)
            if info is None:
                info = ExecutorInfo(executor_id, 1, 0.0)
                self._executors[executor_id] = info
            info.workers = max(1, workers)
            info.last_seen = time.monotonic()
            self._ensure_sweeper_locked()
        if self.metrics is not None:
            self.metrics.gauge(
                FLEET_HEARTBEAT_AGE_SECONDS,
                lambda: self._age(executor_id),
                executor=executor_id,
            )
        return info

    def touch(self, executor_id: str) -> int:
        """Mark the executor heard from (the wire's heartbeat), keeping it
        and its leases live; returns how many leases it holds.  Raises
        :class:`UnknownExecutorError` for executors the dispatcher forgot
        (they must re-register)."""
        with self._lock:
            self._touch_locked(executor_id)
            return sum(owner == executor_id for owner in self._leases.values())

    def deregister(self, executor_id: str) -> bool:
        """Graceful exit: drop the executor and re-queue its leases now."""
        with self._lock:
            existed = self._executors.pop(executor_id, None) is not None
            held = self._release_locked(executor_id)
        for lease_id in held:
            self.service.requeue(lease_id)
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
        grant share a task and a graph.  An executor claims only when it is
        idle, so any lease it still holds is a batch it dropped — a failed
        commit, a lost claim or commit reply — and goes back on the queue
        first; otherwise it would stay held for as long as the executor
        lives.
        """
        limit = _MAX_BATCH
        if max_candidates is not None:
            limit = max(1, min(max_candidates, _MAX_BATCH))
        deadline = time.monotonic() + max(0.0, min(timeout, _MAX_CLAIM_POLL))
        poll = max(0.05, min(self.lease_ttl / 4.0, 0.5))
        with self._lock:
            dropped = self._release_locked(executor_id)
        for lease_id in dropped:
            self.service.requeue(lease_id)

        def issue() -> str:  # runs under the service's lock
            with self._lock:
                # A lease's executor is registered: a forgotten one gets
                # UnknownExecutorError here and the queue stays untouched.
                self._touch_locked(executor_id)
                lease_id = f"lease-{self._issued:06d}"
                self._issued += 1
                self._leases[lease_id] = executor_id
            return lease_id

        while True:
            # Touch every wake: raises UnknownExecutorError (re-register)
            # if the dispatcher forgot us mid-poll, and keeps a long-polling
            # executor — and the leases it holds — live.
            with self._lock:
                info = self._touch_locked(executor_id)
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

        Commits from executors the dispatcher forgot are still accepted:
        the work is done and correct, refusing it would only re-run it.
        """
        if len(keys) != len(records):
            raise ServingError(
                f"commit carries {len(keys)} keys but {len(records)} records"
            )
        replay_key = (
            None
            if idempotency_key is None
            else (executor_id, idempotency_key)
        )
        with self._lock:
            try:
                info = self._touch_locked(executor_id)
            except UnknownExecutorError:
                info = None
            known = None if replay_key is None else self._replays.get(replay_key)
        if known is not None:
            return dataclasses.replace(known, replayed=True)
        # Outside the lock: ``service.commit`` writes the store, and a slow
        # disk must not block claims and heartbeats.
        accepted = sum(
            self.service.commit(key, record)
            for key, record in zip(keys, records, strict=True)
        )
        outcome = CommitOutcome(accepted=accepted, duplicates=len(keys) - accepted)
        with self._lock:
            released = self._leases.pop(lease_id, None) is not None
            if info is not None:
                info.commits += 1
            if replay_key is not None:
                self._replays[replay_key] = outcome
                while len(self._replays) > self._replay_cap:
                    self._replays.popitem(last=False)
        if released:
            self.service.requeue(lease_id)
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
    def _release_locked(self, executor_id: str) -> list[str]:  # holds: _lock
        """Forget the executor's leases; the caller requeues them once it
        has let go of the lock."""
        held = [i for i, owner in self._leases.items() if owner == executor_id]
        for lease_id in held:
            del self._leases[lease_id]
        return held

    def _touch_locked(self, executor_id: str) -> ExecutorInfo:  # holds: _lock
        info = self._executors.get(executor_id)
        if info is None:
            raise UnknownExecutorError(
                f"unknown executor {executor_id!r}; re-register"
            )
        info.last_seen = time.monotonic()
        return info

    def _live(self) -> bool:
        """``service.fleet_live``: some executor was heard from within the
        TTL.  Called under the service's lock."""
        horizon = time.monotonic() - self.lease_ttl
        with self._lock:
            return any(i.last_seen >= horizon for i in self._executors.values())

    def _age(self, executor_id: str) -> float:
        """Seconds since the executor was last heard from (its gauge)."""
        with self._lock:
            return time.monotonic() - self._executors[executor_id].last_seen

    def _ensure_sweeper_locked(self) -> None:  # holds: _lock
        """Start the background lease sweeper on first fleet membership.

        Claim long-polls sweep inline, but a fleet whose every executor
        died (or stopped polling) would otherwise never expire its leases
        or prune its executors; the sweeper guarantees progress regardless.
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
        """Re-queue every lease whose executor is no longer live and prune
        executors silent past ``5 * ttl`` (their metrics go with them).

        Every lease's executor is registered — :meth:`claim` issues leases
        only to registered executors, and dropping an executor drops its
        leases in the same hold of the lock — so each expiry has a row to
        count on."""
        now = time.monotonic()
        with self._lock:
            live = {
                executor_id
                for executor_id, info in self._executors.items()
                if now - info.last_seen <= self.lease_ttl
            }
            expired = [
                (lease_id, owner)
                for lease_id, owner in self._leases.items()
                if owner not in live
            ]
            for lease_id, owner in expired:
                del self._leases[lease_id]
                self._executors[owner].lease_expiries += 1
            pruned = [
                executor_id
                for executor_id, info in self._executors.items()
                if now - info.last_seen > self.lease_ttl * 5.0
            ]
            for executor_id in pruned:
                del self._executors[executor_id]
        for lease_id, owner in expired:
            self.service.requeue(lease_id)
            if self.metrics is not None:
                self.metrics.inc(FLEET_LEASE_EXPIRIES, executor=owner)
        if self.metrics is not None:
            for executor_id in pruned:
                self.metrics.drop(executor=executor_id)

    # -------------------------------------------------------------- status
    def __len__(self) -> int:
        """Registered executors (the ``fleet_executors`` gauge)."""
        with self._lock:
            return len(self._executors)

    @property
    def pending_count(self) -> int:
        """Queued keys no lease holds."""
        return self.service.queue_census()[0]

    @property
    def leased_count(self) -> int:
        return self.service.queue_census()[1].total()

    def status(self) -> dict:
        """Fleet census for ``GET /v1/fleet`` and ``repro fleet status``."""
        pending, held = self.service.queue_census()
        now = time.monotonic()
        with self._lock:
            leased = Counter()
            for lease_id, keys in held.items():
                leased[self._leases.get(lease_id)] += keys
            executors = [
                {
                    "executor_id": info.executor_id,
                    "workers": info.workers,
                    "age_seconds": round(now - info.last_seen, 3),
                    "claims": info.claims,
                    "commits": info.commits,
                    "lease_expiries": info.lease_expiries,
                    "leased_keys": leased[info.executor_id],
                }
                for info in sorted(
                    self._executors.values(), key=lambda i: i.executor_id
                )
            ]
        return {"executors": executors, "pending": pending, "leased": held.total()}
