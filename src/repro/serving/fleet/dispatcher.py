"""Fleet dispatcher: the server-side half of the batch handout seam.

:class:`FleetDispatcher` plugs into
:attr:`~repro.runtime.parallel.ProfilingService.runner` and takes over
pending-candidate execution whenever at least one live executor is
registered.  The flow per batch:

1. :meth:`run_batch` (called from ``ProfilingService._execute`` on the job
   worker thread) enqueues the batch's keys as pending work items and
   blocks until every key has a committed record.
2. Executors long-poll :meth:`claim`, which hands out same-graph batches
   under a :class:`~repro.serving.fleet.leases.Lease`, first come first
   served from the head of the queue.
3. :meth:`commit` publishes finished records through the *same*
   ``service.commit`` path the local pool uses, so memory/store/budget
   invariants cannot diverge.  Commits are idempotent twice over: a
   retried POST replays its recorded outcome via the idempotency key, and
   a key that already landed (an expired lease's zombie finishing late) is
   counted as a duplicate and not double-published.
4. Missed heartbeats expire leases (:meth:`_sweep_locked`): the keys go
   back to pending and someone else claims them — a killed executor costs
   wall-clock, never runs.  When the *whole* fleet goes silent,
   ``run_batch`` withdraws the remainder and falls back to the local pool,
   so a server never deadlocks on a dead fleet.

Lock order: ``FleetDispatcher._lock`` may be held while taking the
registry, lease-table or metrics locks (all leaves); store I/O and
training execution always happen outside it.
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
from repro.runtime.parallel import predicted_cost
from repro.serving.fleet.leases import LeaseTable
from repro.serving.fleet.registry import ExecutorInfo, ExecutorRegistry
from repro.serving.metrics import (
    FLEET_CLAIMS,
    FLEET_COMMIT_DUPLICATES,
    FLEET_COMMITS,
    FLEET_HEARTBEAT_AGE_SECONDS,
    FLEET_LEASE_EXPIRIES,
    FLEET_LOCAL_FALLBACKS,
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


class _BatchGroup:
    """The (task, graph) context shared by one run_batch's work items —
    claims batch items only within a single group, so an executor always
    receives one task and one graph per lease."""

    __slots__ = ("task", "graph", "fingerprint")

    def __init__(
        self, task: TaskSpec, graph: CSRGraph, fingerprint: str
    ) -> None:
        self.task = task
        self.graph = graph
        self.fingerprint = fingerprint


class _WorkItem:
    """One pending candidate: its canonical config, lease state and result."""

    __slots__ = ("key", "config", "group", "lease_id", "record", "local")

    def __init__(self, key: str, config: TrainingConfig, group: _BatchGroup) -> None:
        self.key = key
        self.config = config
        self.group = group
        self.lease_id: str | None = None
        self.record = None
        self.local = False  # True: a local fallback took this key over


class FleetDispatcher:
    """Work-pull dispatcher between profiling batches and remote executors.

    Parameters
    ----------
    service:
        The :class:`~repro.runtime.parallel.ProfilingService` whose batches
        this dispatcher takes over; attaching sets ``service.runner``.
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
        self._items: dict[str, _WorkItem] = {}  # guarded-by: _lock
        self._pending: list[str] = []  # guarded-by: _lock
        #: graphs by fingerprint for /v1/fleet/graph/<fp> fetches; one entry
        #: per distinct graph a server ever profiles on, so no eviction.
        self._graphs: dict[str, CSRGraph] = {}  # guarded-by: _lock
        #: keys whose record already landed via a fleet commit — the dedup
        #: that keeps an expired lease's zombie commit from double-counting.
        self._done: OrderedDict[str, bool] = OrderedDict()  # guarded-by: _lock
        self._done_cap = 65536
        #: (executor, idempotency key) -> outcome, replayed on retried POSTs.
        self._replays: OrderedDict[tuple[str, str], CommitOutcome] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._replay_cap = 4096
        #: background lease sweeper; started lazily on first register() so
        #: fleets that never form pay nothing.  Created/read under _lock.
        self._sweeper: threading.Thread | None = None  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        service.runner = self

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
            self._cond.notify_all()  # run_batch loops re-check accepts()
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
        with self._cond:
            for lease in self.leases.active():
                if lease.executor_id == executor_id:
                    self.leases.release(lease.lease_id)
                    self._requeue_locked(lease.lease_id, lease.keys)
            self._cond.notify_all()
        if existed and self.metrics is not None:
            self.metrics.drop(executor=executor_id)
        return existed

    # ------------------------------------------------------------ job side
    def accepts(self, task, configs, graph) -> bool:
        """Whether the fleet should take this batch: any live executor."""
        return bool(self.registry.live(self.lease_ttl))

    def run_batch(
        self,
        service,
        task: TaskSpec,
        configs: list[TrainingConfig],
        graph: CSRGraph,
        *,
        keys: list,
        cancel=None,
        on_run=None,
    ):
        """Execute one pending batch through the fleet; blocks until done.

        Same contract as ``ProfilingService._execute_local``: records come
        back in input order, each is committed the moment it lands,
        ``cancel`` is honoured at poll boundaries, and ``on_run(done)``
        fires with this call's cumulative finished count.  If every
        executor dies mid-batch the remainder is withdrawn and run on the
        local pool — the job completes either way.
        """
        if cancel is not None:
            cancel.raise_if_cancelled()
        fingerprint = service._fingerprint(graph)
        group = _BatchGroup(task, graph, fingerprint)
        mine: dict[str, _WorkItem] = {}
        with self._cond:
            # ProfilingService.profile claims every key for one caller, so
            # no two batches can hold the same key at once.
            held = [key for key in keys if key in self._items]
            if held:
                raise ServingError(f"keys already in a fleet batch: {held}")
            self._graphs[fingerprint] = graph
            for key, config in zip(keys, configs, strict=True):
                mine[key] = self._items[key] = _WorkItem(
                    key, config.canonical(), group
                )
                self._pending.append(key)
            self._cond.notify_all()  # wake claim long-polls

        poll = max(0.05, min(self.lease_ttl / 4.0, 0.5))
        reported = 0
        try:
            while True:
                with self._cond:
                    self._sweep_locked()
                    unresolved = [
                        key
                        for key, item in mine.items()
                        if self._resolved_locked(item) is None
                    ]
                    finished = len(mine) - len(unresolved)
                    alive = bool(self.registry.live(self.lease_ttl))
                    if unresolved and not alive:
                        # Freeze the remainder before leaving the lock: out
                        # of pending (no claim can grab it) and marked local
                        # (a later lease expiry must not re-queue it).
                        for key in unresolved:
                            mine[key].local = True
                            if key in self._pending:
                                self._pending.remove(key)
                if on_run is not None and finished > reported:
                    reported = finished
                    on_run(finished)
                if cancel is not None:
                    cancel.raise_if_cancelled()
                if not unresolved:
                    return self._collect(service, keys, mine)
                if not alive:
                    break
                with self._cond:
                    # Bounded by ``poll`` (a fraction of the lease TTL): the
                    # loop must wake even if every executor dies silently
                    # between commits, so the dead-fleet fallback below can
                    # take over; commits notify_all() to end the wait early.
                    self._cond.wait(poll)

            # Dead-fleet fallback: run what's left on the local pool.  The
            # records commit through the same service path, so waiters and
            # the store see no difference from a fleet commit.
            if self.metrics is not None:
                self.metrics.inc(FLEET_LOCAL_FALLBACKS)
            service._execute_local(
                task,
                [mine[key].config for key in unresolved],
                graph,
                cancel=cancel,
                keys=unresolved,
                on_run=(
                    None
                    if on_run is None
                    else lambda done: on_run(reported + done)
                ),
            )
            return self._collect(service, keys, mine)
        finally:
            self._withdraw(mine)

    def _collect(self, service, keys: list, mine: dict):
        """Records for ``keys`` in input order, from items or the service
        memory (local-fallback commits land there)."""
        records = []
        with self._lock:
            for key in keys:
                item = mine[key]
                record = (
                    item.record
                    if item.record is not None
                    else service._memory.get(key)
                )
                if record is None:  # pragma: no cover — loop invariant
                    raise ServingError(
                        f"fleet batch finished without a record for {key!r}"
                    )
                records.append(record)
        return records

    def _withdraw(self, mine: dict) -> None:
        """Drop this call's items (each belongs to exactly one batch)."""
        with self._cond:
            for key in mine:
                del self._items[key]
                if key in self._pending:
                    self._pending.remove(key)

    def _resolved_locked(self, item: _WorkItem):  # holds: _lock
        if item.record is not None:
            return item.record
        return self.service._memory.get(item.key)

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
        while True:
            # touch() every wake: raises UnknownExecutorError (re-register)
            # if the registry forgot us mid-poll, and keeps a long-polling
            # but otherwise idle executor alive.
            info = self.registry.touch(executor_id)
            with self._cond:
                self._sweep_locked()
                selected = self._select_locked(limit)
                if selected:
                    lease = self.leases.issue(
                        executor_id,
                        [item.key for item in selected],
                        self.lease_ttl,
                    )
                    for item in selected:
                        item.lease_id = lease.lease_id
                    info.claims += 1
                    group = selected[0].group
                    grant = ClaimGrant(
                        lease_id=lease.lease_id,
                        ttl=self.lease_ttl,
                        task=group.task,
                        dataset=group.task.dataset,
                        fingerprint=group.fingerprint,
                        keys=tuple(item.key for item in selected),
                        configs=tuple(item.config for item in selected),
                    )
                else:
                    grant = None
                    remaining = deadline - time.monotonic()
                    if remaining > 0:
                        # Bounded by the long-poll deadline and by ``poll``
                        # so every wake re-runs the sweep (expired leases
                        # re-queue keys this claim may then grab) and
                        # re-touches the registry before sleeping again.
                        self._cond.wait(min(poll, remaining))
            if grant is not None:
                if self.metrics is not None:
                    self.metrics.inc(FLEET_CLAIMS, executor=executor_id)
                return grant
            if time.monotonic() >= deadline:
                return ClaimGrant.none(self.lease_ttl)

    def _select_locked(self, limit):  # holds: _lock
        if not self._pending:
            return []
        group = self._items[self._pending[0]].group
        chosen = [
            key for key in self._pending if self._items[key].group is group
        ][:limit]
        # Longest-first within the claim batch: the executor runs its lease
        # in grant order, so fronting the expensive candidates shortens the
        # tail when a lease expires mid-batch (the cheap remainder re-queues
        # and backfills elsewhere).  Pure arithmetic on already-loaded
        # objects, so fine under the lock; the sort is stable, keeping the
        # arrival order among cost ties deterministic.
        chosen.sort(
            key=lambda k: -predicted_cost(
                group.task, self._items[k].config, group.graph
            )
        )
        for key in chosen:
            self._pending.remove(key)
        return [self._items[key] for key in chosen]

    def commit(
        self,
        executor_id: str,
        lease_id: str | None,
        keys: list,
        records: list,
        *,
        idempotency_key: str | None = None,
    ) -> CommitOutcome:
        """Publish finished records; idempotent against retries and zombies.

        A retried POST (same executor + idempotency key) replays the
        recorded outcome without touching anything.  A key that already
        landed — its lease expired and someone else committed it first —
        counts as a duplicate: no store write, no ``executed`` bump.  The
        runs themselves are deterministic functions of (task, config,
        graph), so whichever commit wins, the bytes are identical.

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
        fresh: list = []
        duplicates = 0
        with self._cond:
            if replay_key is not None:
                known = self._replays.get(replay_key)
                if known is not None:
                    return dataclasses.replace(known, replayed=True)
            for key, record in zip(keys, records, strict=True):
                if key in self._done:
                    duplicates += 1
                    continue
                self._done[key] = True
                while len(self._done) > self._done_cap:
                    self._done.popitem(last=False)
                fresh.append((key, record))

        # Store I/O outside the dispatcher lock: a slow disk must not block
        # claims and heartbeats.  Each publish bumps ``executed`` — the run
        # really happened, just on another machine (whose own ``trainings``
        # counts it: the wire carries records, not runs).
        published = 0
        try:
            for key, record in fresh:
                self.service.commit(key, record)
                self.service.stats.bump("executed")
                published += 1
        except BaseException:
            with self._cond:
                # Un-reserve what never landed so re-claims can re-run it.
                for key, _ in fresh[published:]:
                    self._done.pop(key, None)
                self._cond.notify_all()
            raise

        outcome = CommitOutcome(accepted=len(fresh), duplicates=duplicates)
        with self._cond:
            for key, record in fresh:
                item = self._items.get(key)
                if item is not None:
                    item.record = record
                    item.lease_id = None
                    if key in self._pending:
                        self._pending.remove(key)
            if lease_id is not None:
                self.leases.release(lease_id)
            if info is not None:
                info.commits += 1
            if replay_key is not None:
                self._replays[replay_key] = outcome
                while len(self._replays) > self._replay_cap:
                    self._replays.popitem(last=False)
            self._cond.notify_all()
        if self.metrics is not None:
            # A forgotten executor bumps only the total: a labeled series
            # would outlive the prune that dropped its others.
            labels = {"executor": executor_id} if info is not None else {}
            self.metrics.inc(FLEET_COMMITS, **labels)
            if duplicates:
                self.metrics.inc(FLEET_COMMIT_DUPLICATES, duplicates)
        return outcome

    def graph(self, fingerprint: str) -> CSRGraph:
        """The graph behind one fingerprint (``/v1/fleet/graph/<fp>``)."""
        with self._lock:
            graph = self._graphs.get(fingerprint)
        if graph is None:
            raise ServingError(f"unknown graph fingerprint {fingerprint!r}")
        return graph

    # ------------------------------------------------------------- plumbing
    def _requeue_locked(self, lease_id, lease_keys):  # holds: _lock
        """Put a dead lease's unfinished keys back on the pending queue."""
        requeued = 0
        for key in lease_keys:
            item = self._items.get(key)
            if item is None or item.record is not None or item.local:
                continue
            if key in self._done:
                continue
            if item.lease_id != lease_id:
                continue  # already re-claimed under a newer lease
            item.lease_id = None
            if key not in self._pending:
                self._pending.append(key)
            requeued += 1
        return requeued

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
                self._sweep_locked()
                # Bounded by ``poll`` (a fraction of the lease TTL) so
                # expiry/prune latency is bounded even when no claim is
                # polling; close() flips _closed and notify_all()s, so
                # shutdown never waits a full poll interval.
                self._cond.wait(poll)

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

    def _sweep_locked(self) -> None:  # holds: _lock
        """Expire overdue leases (re-queue their keys) and prune executors
        silent past the horizon (their metrics go with them)."""
        for lease in self.leases.expired():
            requeued = self._requeue_locked(lease.lease_id, lease.keys)
            info = self.registry.get(lease.executor_id)
            if info is not None:
                info.lease_expiries += 1
            if self.metrics is not None:
                self.metrics.inc(
                    FLEET_LEASE_EXPIRIES, executor=lease.executor_id
                )
            if requeued:
                self._cond.notify_all()
        for info in self.registry.prune(self.lease_ttl * 5.0):
            if self.metrics is not None:
                self.metrics.drop(executor=info.executor_id)

    # -------------------------------------------------------------- status
    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def leased_count(self) -> int:
        with self._lock:
            return sum(
                1
                for item in self._items.values()
                if item.lease_id is not None and item.record is None
            )

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
