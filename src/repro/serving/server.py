"""Multi-tenant navigation server.

:class:`NavigationServer` turns the single-user :class:`GNNavigator` facade
into a service: many clients submit :class:`NavigationRequest`s, a bounded
pool of worker threads drains a priority queue, and every job's Step-2
profiling is delegated to one shared
:class:`~repro.runtime.parallel.ProfilingService` (behind the
:class:`SharedProfilingService` estimator memo) so the dominant cost — ground-truth training runs — is paid once per unique
``(task, config, graph)`` across *all* tenants, in flight or in the
persistent store.

The server is in-process by design (the profiling service underneath fans
out to worker *processes*; job threads spend their time waiting on it), so
"client" and "server" share memory and polling is cheap.  Lifecycle::

    with NavigationServer(cache_dir=...) as server:
        job_id = server.submit(NavigationRequest(task=task))
        result = server.result(job_id)         # blocks until DONE
        jobs = server.drain()                  # or: wait for everything
"""

from __future__ import annotations

import threading
import time
import traceback as traceback_mod
from collections import deque

from repro.autograd.sparse import spmm_stats
from repro.config.space import default_space
from repro.errors import (
    JobCancelled,
    JobFailedError,
    ResultExpiredError,
    ServerStoppingError,
    ServingError,
    UnknownJobError,
)
from repro.explorer.navigator import GNNavigator
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.runtime.parallel import ProfilingService, ProfilingStats, ResultStore
from repro.serving.fleet import FleetDispatcher
from repro.serving.events import (
    DEFAULT_POLL_SECONDS,
    EventBatch,
    EventBuffer,
    JobProgressEvent,
)
from repro.serving.metrics import (
    ESTIMATOR_FIT_HITS,
    ESTIMATOR_FITS,
    EVENTS_DROPPED,
    EVENTS_EMITTED,
    FLEET_EXECUTORS,
    FLEET_LEASED,
    FLEET_PENDING,
    JOBS_CANCELLED,
    JOBS_DONE,
    JOBS_FAILED,
    JOBS_PENDING,
    JOBS_RUNNING,
    JOBS_SUBMITTED,
    PROFILING_CACHE_HITS,
    PROFILING_DEDUPLICATED,
    PROFILING_EVICTIONS,
    PROFILING_EXECUTED,
    PROFILING_SHARED_INFLIGHT,
    PROFILING_TRAININGS,
    RESULTS_EXPIRED,
    SPMM_CALLS,
    SPMM_SECONDS,
    STORE_BYTES,
    STORE_ENTRIES,
    STORE_PERSISTENT,
    TRANSFER_CORPUS_RECORDS,
    TRANSFER_CORPUS_TASKS,
    MetricsRegistry,
)
from repro.serving.queue import PriorityJobQueue
from repro.serving.scheduler import SharedProfilingService
from repro.transfer.policy import TransferPolicy
from repro.transfer.warmstart import TransferContext
from repro.serving.types import (
    Job,
    JobResult,
    JobSnapshot,
    JobStatus,
    NavigationRequest,
)

__all__ = ["NavigationServer"]

#: the counter each terminal status bumps.
_FINISHED = {
    JobStatus.DONE: JOBS_DONE,
    JobStatus.FAILED: JOBS_FAILED,
    JobStatus.CANCELLED: JOBS_CANCELLED,
}

#: finished jobs whose result, event history and cancellation token a server
#: keeps.  Older finished jobs keep only their snapshot (status, error,
#: timestamps) and their terminal event.  A ``default_space()`` job's result
#: holds ~0.16 MB of exploration (its ``(T, Γ, Acc)`` table and candidate
#: list; ~0.9 MB while every prediction was an object), so this bounds a
#: long-lived server's memory.
_RETAINED_RESULTS = 256


class NavigationServer:
    """Priority-scheduled, cache-sharing front-end over ``GNNavigator``.

    Parameters
    ----------
    workers:
        Concurrent navigation jobs (worker threads).
    profile_workers:
        Local worker processes of the shared profiling service (``None``/
        ``0``/``1`` = job threads train), leasing training classes like
        fleet executors; :meth:`stop` stops them for good.
    cache_dir:
        Directory of the shared persistent :class:`ResultStore`; ``None``
        keeps sharing in-memory only (still deduped across jobs).
    graphs:
        Pre-registered graphs by dataset name, consulted before
        :func:`load_dataset` — lets tenants serve custom graphs and tests
        serve fixtures.  Datasets loaded on demand are cached here too, so
        every job for a dataset shares one graph object (and one
        fingerprint memo in the profiling service).
    space:
        Server-wide design space every job explores (``None`` = the default
        space).  One space for all tenants is what makes their Step-2
        samples overlap — the whole point of sharing the store — and, being
        one object, it enumerates its candidates once for every job.
    autostart:
        Start worker threads immediately.  Pass ``False`` to stage
        submissions first (deterministic priority-ordering tests), then call
        :meth:`start`.
    fairness:
        Schedule the queue by weighted round-robin across tenants instead
        of pure priority, so one burst-submitting tenant cannot starve the
        rest; priority still orders jobs within a tenant's lane.
    weights:
        Fair-share weights by tenant name (default 1 each).
    quotas:
        Per-tenant ``max_inflight`` caps (tenant name -> concurrent jobs).
    max_inflight:
        Default in-flight cap for tenants without an explicit quota;
        ``None`` = unlimited.
    store_budget:
        Entry budget for the persistent store: every save past it evicts
        the least-recently-written entries (``stats.evictions`` counts
        them).  ``None`` = unbounded.
    store_budget_bytes:
        On-disk *byte* budget for the persistent store, same eviction
        policy; both budgets may be active at once.
    event_buffer:
        Capacity of each job's progress-event ring buffer.  A slow (or
        absent) subscriber never blocks the job: past the capacity the
        oldest events are dropped, the drop is counted in
        ``metrics["events_dropped"]``, and readers that fell behind see an
        explicit gap instead of a silent skip.
    fleet_lease_ttl:
        Lease TTL (seconds) of the distributed profiling fleet — how long
        a remote executor may go silent before its claimed work goes back
        to the queue, and how long after its last word it still counts as
        live.  While no executor is live, job threads train every pending
        key themselves.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        profile_workers: int | None = None,
        cache_dir: str | None = None,
        graphs: dict[str, CSRGraph] | None = None,
        space=None,
        autostart: bool = True,
        fairness: bool = False,
        weights: dict[str, int] | None = None,
        quotas: dict[str, int] | None = None,
        max_inflight: int | None = None,
        store_budget: int | None = None,
        store_budget_bytes: int | None = None,
        event_buffer: int = 256,
        fleet_lease_ttl: float = 10.0,
        transfer: TransferPolicy | bool = False,
    ) -> None:
        if workers < 1:
            raise ServingError("a server needs at least one worker thread")
        if event_buffer < 1:
            raise ServingError("event_buffer must hold at least one event")
        self.workers = workers
        self.event_buffer = event_buffer
        self.space = space if space is not None else default_space()
        self.service = ProfilingService(
            max_workers=profile_workers,
            cache_dir=cache_dir,
            store_budget=store_budget,
            store_budget_bytes=store_budget_bytes,
        )
        self.profiler = SharedProfilingService(self.service)
        self._queue_config = {
            "fairness": fairness,
            "weights": weights,
            "quotas": quotas,
            "max_inflight": max_inflight,
        }
        self.queue = PriorityJobQueue(**self._queue_config)
        self._graphs = dict(graphs or {})  # guarded-by: _graph_lock
        self._graph_lock = threading.Lock()
        self._lock = threading.Lock()
        self._terminal = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}  # guarded-by: _lock
        #: finished jobs that still hold their result, oldest first.
        self._retained: deque[Job] = deque()  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._started_seq = 0  # guarded-by: _lock
        self._threads: list[threading.Thread] = []
        self._stopping = False  # guarded-by: _lock
        self.metrics = MetricsRegistry()
        # Attaching the dispatcher sets ``service.fleet_live``: live
        # executors claim pending profiling keys, and the job thread trains
        # whatever none of them holds — a local-only server never waits.
        self.fleet = FleetDispatcher(
            self.service, lease_ttl=fleet_lease_ttl, metrics=self.metrics
        )
        # Cross-task transfer rides the persistent store: with a corpus and
        # a server-level opt-in, navigations warm-start from prior tenants'
        # ground truth (requests can still override per-job via their
        # ``transfer_policy``).  Memory-only servers have no corpus and run
        # cold regardless.
        self.transfer: TransferContext | None = None
        if transfer and self.profiler.corpus is not None:
            policy = transfer if isinstance(transfer, TransferPolicy) else None
            self.transfer = TransferContext(
                self.profiler.corpus, policy=policy, metrics=self.metrics
            )
        self._register_gauges()
        if autostart:
            self.start()

    def _register_gauges(self) -> None:
        """Bind the live gauges; counters appear as events bump them."""
        stats = self.service.stats
        for family, field in (
            (PROFILING_EXECUTED, "executed"),
            (PROFILING_TRAININGS, "trainings"),
            (PROFILING_CACHE_HITS, "cache_hits"),
            (PROFILING_DEDUPLICATED, "deduplicated"),
            (PROFILING_SHARED_INFLIGHT, "shared_inflight"),
            (PROFILING_EVICTIONS, "evictions"),
        ):
            self.metrics.gauge(family, lambda f=field: getattr(stats, f))
        for family, field in (
            (ESTIMATOR_FITS, "estimator_fits"),
            (ESTIMATOR_FIT_HITS, "estimator_fit_hits"),
        ):
            self.metrics.gauge(family, lambda f=field: getattr(self.profiler, f))
        self.metrics.gauge(STORE_PERSISTENT, lambda: int(self.store is not None))
        self.metrics.gauge(
            STORE_ENTRIES, lambda: 0 if self.store is None else len(self.store)
        )
        self.metrics.gauge(
            STORE_BYTES, lambda: 0 if self.store is None else self.store.nbytes
        )
        self.metrics.gauge(
            JOBS_PENDING, lambda: self._census(JobStatus.PENDING)
        )
        self.metrics.gauge(
            JOBS_RUNNING, lambda: self._census(JobStatus.RUNNING)
        )
        self.metrics.gauge(FLEET_EXECUTORS, lambda: len(self.fleet))
        self.metrics.gauge(FLEET_PENDING, lambda: self.fleet.pending_count)
        self.metrics.gauge(FLEET_LEASED, lambda: self.fleet.leased_count)
        corpus = self.profiler.corpus
        if corpus is not None:
            self.metrics.gauge(TRANSFER_CORPUS_TASKS, lambda: corpus.num_tasks)
            self.metrics.gauge(
                TRANSFER_CORPUS_RECORDS, lambda: corpus.num_records
            )
        # SpMM timing is process-wide: whatever every in-process training
        # run of every job accumulated.
        self.metrics.gauge(SPMM_CALLS, lambda: spmm_stats()[0])
        self.metrics.gauge(SPMM_SECONDS, lambda: spmm_stats()[1])

    def _census(self, status: JobStatus) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.status is status)

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Spin up the worker threads (idempotent; restarts after stop)."""
        with self._lock:
            if self._threads:
                return
            self._stopping = False
            if self.queue.closed:
                # stop() closed the previous queue to wake its workers; a
                # restarted server needs a live one or submits would orphan
                # PENDING jobs.
                self.queue = PriorityJobQueue(**self._queue_config)
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"nav-serve-{i}",
                    daemon=True,
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Drain nothing further: close the queue and join the workers.

        PENDING jobs still queued are cancelled; the running ones finish.
        The ordering is what makes the drain deterministic: the queue is
        closed *before* the workers are joined and the survivors flipped,
        so no worker can still be mid-``pop`` (racing ``_stopping``) and no
        late :meth:`submit` can slip a job past the flip — a closed queue
        rejects the push and the submit path cancels the job itself.  After
        ``stop()`` returns, no job is ever left PENDING.
        """
        with self._lock:
            self._stopping = True
        self.queue.close()
        self.fleet.close()  # stop the lease sweeper before joining workers
        for thread in self._threads:
            thread.join()
        self._threads = []
        self.service.close()
        with self._terminal:
            for job in self._jobs.values():
                if job.status is JobStatus.PENDING:
                    self._finish(job, JobStatus.CANCELLED)
            self._terminal.notify_all()

    def __enter__(self) -> "NavigationServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- submission
    def submit(self, request: NavigationRequest) -> str:
        """Queue one request; returns the job id to poll."""
        with self._lock:
            if self._stopping:
                raise ServerStoppingError(
                    "server is stopping; submission rejected"
                )
            job_id = f"job-{self._next_id:04d}"
            self._next_id += 1
            job = Job(
                job_id=job_id,
                request=request,
                submitted_seq=self._next_id,
                submitted_at=time.monotonic(),
                events=EventBuffer(
                    self.event_buffer,
                    on_drop=lambda n: self.metrics.inc(EVENTS_DROPPED, n),
                ),
            )
            self._jobs[job_id] = job
            # Emitted under the lock: a concurrent stop()/cancel() takes
            # the same lock to _finish() this PENDING job, so the terminal
            # event can never be appended before (or instead of) 'queued'
            # — the stream always starts 'queued' and ends terminal.
            self.metrics.inc(JOBS_SUBMITTED)
            self._emit(job, "queued")
        try:
            self.queue.push(job_id, request.priority, request.tenant)
        except ServingError:
            # stop() closed the queue between our admission check and the
            # push: cancel the accepted job so it can never sit PENDING
            # with no worker left to drain it.
            with self._terminal:
                if job.status is JobStatus.PENDING:
                    self._finish(job, JobStatus.CANCELLED)
            raise ServerStoppingError(
                "server is stopping; submission rejected"
            ) from None
        return job_id

    def submit_many(self, requests: list[NavigationRequest]) -> list[str]:
        """Queue a batch; returns job ids in request order."""
        return [self.submit(request) for request in requests]

    # ---------------------------------------------------------------- polling
    def _get(self, job_id: str) -> Job:
        # Jobs are never removed from the table, but the dict itself may be
        # rehashing under a concurrent submit — take the lock for the lookup.
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> JobStatus:
        """Current lifecycle state of a job."""
        return self._get(job_id).status

    def snapshot(self, job_id: str) -> JobSnapshot:
        """One consistent view of a job's observable state.

        Taken under the server lock, so status, error and timestamps all
        belong to the same moment — job handles use this instead of
        separate ``status()``/``job()`` lookups that could interleave with
        a worker's terminal transition.
        """
        job = self._get(job_id)
        with self._lock:
            return job.snapshot()

    def wait(self, job_id: str, timeout: float | None = None) -> JobSnapshot:
        """Block until the job is terminal (or ``timeout``); never raises on
        the job's outcome — returns whatever state the wait ended in.  The
        transport's long-poll primitive."""
        job = self._get(job_id)
        with self._terminal:
            self._terminal.wait_for(lambda: job.done, timeout)
            return job.snapshot()

    def events(
        self, job_id: str, since: int = 0, timeout: float | None = None
    ) -> EventBatch:
        """One bounded read of a job's progress-event stream.

        Returns every retained event with ``seq >= since`` (blocking up to
        ``timeout`` for the first new one), the ``next_seq`` to resume
        from, the ``gap`` of ring-dropped events (0 = lossless), and
        ``done`` once the job is terminal with everything delivered — the
        long-poll primitive behind ``JobHandle.events`` and the
        transport's ``/v1/jobs/<id>/events``.

        ``timeout=None`` waits one default long-poll round
        (:data:`~repro.serving.events.DEFAULT_POLL_SECONDS`), exactly like
        the remote handle; pass ``timeout=0`` for a non-blocking probe.
        """
        if timeout is None:
            timeout = DEFAULT_POLL_SECONDS
        job = self._get(job_id)
        # Sample terminality *before* reading: the terminal event is
        # appended before the status flip, so ``done`` sampled True here
        # guarantees the batch below contains (or already delivered) it.
        job_done = job.done
        try:
            events, next_seq, gap = job.events.read(
                since, timeout, done=lambda: job.done
            )
        except ValueError as exc:
            raise ServingError(str(exc)) from None
        return EventBatch(
            events=events, next_seq=next_seq, gap=gap, done=job_done
        )

    def job(self, job_id: str) -> Job:
        """Full bookkeeping record of a job (live object, read-only use)."""
        return self._get(job_id)

    def jobs(self) -> list[Job]:
        """Every accepted job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_seq)

    def snapshots(self) -> list[JobSnapshot]:
        """Every accepted job's snapshot, in submission order.

        One lock hold for the whole listing — the transport's job-list and
        drain responses use this instead of per-job :meth:`snapshot` calls.
        """
        with self._lock:
            return [
                job.snapshot()
                for job in sorted(
                    self._jobs.values(), key=lambda j: j.submitted_seq
                )
            ]

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its result.

        Raises :class:`JobFailedError` (with the server-side traceback) on
        FAILED jobs, :class:`ServingError` on cancellation or timeout, and
        :class:`ResultExpiredError` for a DONE job that has left the newest
        ``_RETAINED_RESULTS`` finished jobs.
        """
        job = self._get(job_id)
        with self._terminal:
            if not self._terminal.wait_for(lambda: job.done, timeout):
                raise ServingError(f"timed out waiting for {job_id}")
            result = job.result
        if job.status is JobStatus.DONE:
            if result is None:
                raise ResultExpiredError(
                    f"{job_id} is done, but its result is no longer kept "
                    f"(a server keeps the newest {_RETAINED_RESULTS} results)"
                )
            return result
        if job.status is JobStatus.CANCELLED:
            raise ServingError(f"{job_id} was cancelled")
        raise JobFailedError(job_id, job.error or "", job.traceback)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns whether cancellation took (or was started).

        PENDING jobs drop out of the queue immediately.  RUNNING jobs are
        cancelled *cooperatively*: their token is flipped and the job
        observes it at the next profiling-batch boundary, dropping the keys
        it has on the profiling queue so concurrent waiters queue them again.
        Best-effort by design — a RUNNING job past its last checkpoint
        still finishes DONE.  Terminal jobs return ``False``.
        """
        job = self._get(job_id)
        with self._terminal:
            if job.status is JobStatus.PENDING:
                self._finish(job, JobStatus.CANCELLED)
                self.queue.discard(job_id)
                return True
            if job.status is JobStatus.RUNNING:
                job.cancel_token.cancel()
                return True
            return False

    def drain(self, timeout: float | None = None) -> list[Job]:
        """Block until every accepted job reaches a terminal state."""
        with self._terminal:
            done = lambda: all(j.done for j in self._jobs.values())  # noqa: E731
            if not self._terminal.wait_for(done, timeout):
                raise ServingError("timed out draining the server")
        return self.jobs()

    @property
    def stats(self) -> ProfilingStats:
        """Shared profiling counters across every job served so far."""
        return self.service.stats

    @property
    def store(self) -> ResultStore | None:
        """The shared persistent store (``None`` when memory-only)."""
        return self.service.store

    # ---------------------------------------------------------------- workers
    def _resolve_graph(self, dataset: str) -> CSRGraph:
        """Registered graph for ``dataset``, loading and memoizing on miss.

        The synthetic zoo's :func:`load_dataset` happens to memoize named
        datasets process-wide, but that is its implementation detail, not a
        contract — caching the loaded graph back into ``self._graphs``
        makes the one-object-per-dataset invariant the *server's* own
        (request aliases included), which the profiling service's
        identity-memoized fingerprints rely on.  ``setdefault`` under the
        lock makes the first loader win a load race; the loser's copy is
        dropped.
        """
        with self._graph_lock:
            graph = self._graphs.get(dataset)
        if graph is not None:
            return graph
        graph = load_dataset(dataset)
        with self._graph_lock:
            return self._graphs.setdefault(dataset, graph)

    def _emit(self, job: Job, phase: str, *, status: JobStatus | None = None, **fields) -> None:
        """Append one progress event to the job's ring (never blocks)."""
        state = status if status is not None else job.status
        job.events.append(
            JobProgressEvent(
                job_id=job.job_id,
                phase=phase,
                status=state.value,
                elapsed_s=time.monotonic() - (job.submitted_at or time.monotonic()),
                **fields,
            )
        )
        self.metrics.inc(EVENTS_EMITTED)

    def _finish(self, job: Job, status: JobStatus) -> None:  # holds: _lock
        """Move a job to a terminal state and wake the waiters (lock held).

        The terminal event is appended *before* the status flip: any reader
        that observes ``job.done`` is thereby guaranteed the terminal event
        is already in the buffer, so an event batch can never report
        ``done`` without having delivered the ending.

        The job joins the retained finished jobs; the oldest one past
        ``_RETAINED_RESULTS`` drops its result, its cancellation token and
        every event but its terminal one.  Its snapshot stays.
        """
        self._emit(job, status.value, status=status)
        job.status = status
        job.finished_at = time.monotonic()
        self.metrics.inc(_FINISHED[status])
        self._retained.append(job)
        if len(self._retained) > _RETAINED_RESULTS:
            expired = self._retained.popleft()
            expired.result = None
            expired.cancel_token = None
            expired.events.keep_last()
            self.metrics.inc(RESULTS_EXPIRED)
        self._terminal.notify_all()

    def _worker_loop(self) -> None:
        while True:
            job_id = self.queue.pop()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
            try:
                with self._terminal:
                    if job.status is not JobStatus.PENDING:
                        continue  # cancelled while queued
                    if self._stopping:
                        self._finish(job, JobStatus.CANCELLED)
                        continue
                    job.status = JobStatus.RUNNING
                    job.started_seq = self._started_seq
                    job.started_at = time.monotonic()
                    self._started_seq += 1
                    self._emit(job, "started")
                try:
                    result = self._run(job)
                except JobCancelled:
                    with self._terminal:
                        self._finish(job, JobStatus.CANCELLED)
                except Exception as exc:  # noqa: BLE001 — jobs fail, servers don't
                    trace = traceback_mod.format_exc()
                    with self._terminal:
                        job.error = f"{type(exc).__name__}: {exc}"
                        job.traceback = trace
                        self._finish(job, JobStatus.FAILED)
                else:
                    with self._terminal:
                        job.result = result
                        self._finish(job, JobStatus.DONE)
            finally:
                # Every pop owes the queue exactly one release — including
                # the cancelled-while-queued and stop paths above — or the
                # tenant's in-flight quota slot leaks.
                self.queue.task_done(job.request.tenant)

    def _resolve_transfer(self, request: NavigationRequest):
        """Transfer context for one request: server default + job override.

        A request's ``transfer_policy`` can disable transfer outright
        (``enabled=False``), retune the server context, or opt a job in on
        a server whose default is off — but never conjure a corpus a
        memory-only server doesn't have.
        """
        policy = request.transfer_policy
        if policy is None:
            return self.transfer
        if not policy.enabled:
            return None
        if self.transfer is not None:
            return self.transfer.with_policy(policy)
        if self.profiler.corpus is not None:
            return TransferContext(
                self.profiler.corpus, policy=policy, metrics=self.metrics
            )
        return None

    def _run(self, job: Job) -> JobResult:
        """Execute one navigation with profiling delegated to the shared service."""
        request = job.request
        navigator = GNNavigator(
            request.task,
            space=self.space,
            graph=self._resolve_graph(request.task.dataset),
            profile_budget=request.budget,
            profile_epochs=request.profile_epochs,
            seed=request.seed,
            profiler=self.profiler,
            cancel=job.cancel_token,
            progress=lambda phase, **fields: self._emit(job, phase, **fields),
            transfer=self._resolve_transfer(request),
        )
        report = navigator.explore(
            constraint=request.constraint,
            priorities=list(request.priorities),
        )
        guidelines = {
            name: report.guidelines[name] for name in request.priorities
        }
        perf = None
        if request.train:
            perf = navigator.apply(guidelines[request.priorities[0]])
        return JobResult(guidelines=guidelines, report=report, perf=perf)
