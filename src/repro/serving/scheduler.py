"""Cross-task profiling scheduler: one measurement per candidate, ever.

Many concurrently-running jobs delegate Step-2 profiling to one shared
:class:`~repro.runtime.parallel.ProfilingService`.  The service alone
already dedups within a call and caches across calls, but two jobs racing
on overlapping design-space samples would still measure the overlap twice —
each sees the other's candidates as misses until they land in the store.

:class:`SharedProfilingService` closes that hole with an *in-flight table*:
before dispatching, each job claims the keys nobody else is measuring and
registers an event for them; keys already claimed by another job are waited
on instead of re-executed, and the finished records fan back out to every
waiter through the service's shared memory/store.  The wrapper keeps the
service's ``profile()`` contract (input order in, one record per config
out), so it drops into :class:`~repro.explorer.navigator.GNNavigator`'s
``profiler`` seat unchanged.

The same sharing applies one step later: jobs whose Step 2 ends in the
same records fit the same gray-box estimator, so the service memoises
fitted estimators (:meth:`SharedProfilingService.fit_estimator`) and a
warm repeat job fits nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.config.settings import TaskSpec, TrainingConfig
from repro.estimator.graybox import GrayBoxEstimator
from repro.graphs.csr import CSRGraph
from repro.graphs.datasets import load_dataset
from repro.runtime.parallel import CancellationToken, ProfilingService
from repro.runtime.profiler import GroundTruthRecord
from repro.transfer.corpus import TransferCorpus

__all__ = ["SharedProfilingService"]

#: fitted estimators one service keeps; the least recently used goes first.
#: A fitted estimator is a few hundred tree nodes (kilobytes).  The cap is a
#: memory bound, not a measured working set: the only served load measured
#: so far (``serve_http``) asks for 4 distinct keys and never evicts.
_FITTED_ESTIMATORS = 64


class SharedProfilingService:
    """Thread-safe, in-flight-deduplicating front of one profiling service.

    All state transitions happen under one lock; the actual training runs
    (``service._execute``) happen outside it, so claimed batches from
    different jobs execute concurrently when the service has pool workers.

    When the underlying service persists to a :class:`ResultStore`, the
    wrapper also exposes a :class:`~repro.transfer.corpus.TransferCorpus`
    over it (``corpus``), so every record any tenant commits becomes a
    warm-start donor candidate for later tasks; a memory-only service has
    no corpus (``None``).
    """

    def __init__(
        self, service: ProfilingService, *, corpus: TransferCorpus | None = None
    ) -> None:
        self.service = service
        if corpus is None and service.store is not None:
            corpus = TransferCorpus(service.store)
        self.corpus = corpus
        self._lock = threading.Lock()
        self._inflight: dict[object, threading.Event] = {}  # guarded-by: _lock
        #: memo key -> frozen fitted estimator, least recently used first.
        self._fitted: OrderedDict = OrderedDict()  # guarded-by: _lock
        #: estimators fitted (memo misses) and handed out from the memo.
        self.estimator_fits = 0  # guarded-by: _lock
        self.estimator_fit_hits = 0  # guarded-by: _lock

    @property
    def stats(self):
        return self.service.stats

    @property
    def store(self):
        return self.service.store

    def fit_estimator(
        self,
        records: list[GroundTruthRecord],
        sample_weight=None,
        *,
        train_frac: float,
        random_state: int,
    ) -> GrayBoxEstimator:
        """:meth:`GrayBoxEstimator.fitted`, memoised across jobs.

        The key is everything ``fit`` reads: the records in order (a
        :class:`GroundTruthRecord` is a frozen value, and order decides the
        forests' bootstrap rows), the donor weights' bytes, ``train_frac``
        and ``random_state`` (each tree's rng is created from it and drawn
        from in ``fit`` only).  Equal keys therefore fit equal estimators,
        bit for bit.  The returned estimator is frozen: every job holding it
        shares it, so nobody may refit it.

        The fit runs outside the lock, so two jobs missing on one key at
        once may both fit; both fits are equal and the first one stored is
        the one both get.
        """
        key = (
            tuple(records),
            None
            if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64).tobytes(),
            train_frac,
            random_state,
        )
        with self._lock:
            estimator = self._fitted.get(key)
            if estimator is not None:
                self._fitted.move_to_end(key)
                self.estimator_fit_hits += 1
        if estimator is not None:
            return estimator
        fresh = GrayBoxEstimator.fitted(
            records, sample_weight, train_frac=train_frac, random_state=random_state
        ).freeze()
        with self._lock:
            estimator = self._fitted.setdefault(key, fresh)
            self._fitted.move_to_end(key)
            while len(self._fitted) > _FITTED_ESTIMATORS:
                self._fitted.popitem(last=False)
            self.estimator_fits += 1
        return estimator

    def profile(
        self,
        task: TaskSpec,
        configs: list[TrainingConfig],
        *,
        graph: CSRGraph | None = None,
        progress: bool = False,
        cancel: CancellationToken | None = None,
        on_progress=None,
    ) -> list[GroundTruthRecord]:
        """Measure every candidate, sharing work with concurrent callers.

        Same contract as :meth:`ProfilingService.profile`: one record per
        input config, in input order, identical to the serial path.

        ``cancel`` makes the call cooperatively cancellable: the token is
        polled at every claim-round boundary, between candidate runs inside
        the service, and while waiting on another job's in-flight keys.  A
        cancelled caller always releases its claims (the ``_execute`` escape
        hatch below fires on *any* exception), so waiters re-claim and
        measure the abandoned keys themselves instead of hanging.

        ``on_progress(runs_done, runs_total, cache_hits)`` streams this
        call's cumulative resolution: candidates land from the memory/store
        cache, from this job's own training runs, *and* from other jobs'
        in-flight runs (those count as cache hits — the subscriber sees
        work it did not pay for as cached).
        """
        svc = self.service
        graph = graph if graph is not None else load_dataset(task.dataset)
        keys = svc._keys(task, configs, graph)

        results: dict = {}
        remaining: dict = {}  # key -> canonical config, insertion-ordered
        for key, config in zip(keys, configs, strict=True):
            if key in results or key in remaining:
                svc.stats.bump("deduplicated")
                continue
            remaining[key] = config.canonical()

        total = len(remaining)
        hits = 0
        last_report: list = [None]

        def report(extra_runs: int = 0) -> None:
            if on_progress is None:
                return
            state = (len(results) + extra_runs, total, hits)
            if state != last_report[0]:  # claim rounds that landed nothing
                last_report[0] = state
                on_progress(*state)

        report()
        while remaining:
            if cancel is not None:
                # Claim-round boundary: nothing is claimed right here, so
                # aborting cannot strand a key other jobs are waiting on.
                cancel.raise_if_cancelled()
            mine: dict = {}
            waits: dict[object, threading.Event] = {}
            # Claim phase touches only in-process state — the lock is never
            # held across disk I/O, so tenants don't serialize behind each
            # other's store reads on a warm cache.
            with self._lock:
                for key in list(remaining):
                    record = svc._memory.get(key)
                    if record is not None:
                        svc.stats.bump("cache_hits")
                        results[key] = record
                        del remaining[key]
                        hits += 1
                        continue
                    other = self._inflight.get(key)
                    if other is not None:
                        waits[key] = other
                    else:
                        event = threading.Event()
                        self._inflight[key] = event
                        mine[key] = remaining.pop(key)
            report()

            # Store probe outside the lock: these keys are claimed, so no
            # concurrent job can be measuring or probing them.
            if mine and svc.store is not None:
                for key in list(mine):
                    record = svc.store.load(key)
                    if record is None:
                        continue
                    del mine[key]
                    with self._lock:
                        svc._memory[key] = record
                        svc.stats.bump("cache_hits")
                        results[key] = record
                        self._inflight.pop(key).set()
                    hits += 1
                report()

            if mine:
                try:
                    # _execute commits each record the moment it lands
                    # (memory + store; store writes lock internally), so
                    # events only ever flip on published records — and an
                    # aborted batch keeps every run it finished.
                    fresh = svc._execute(
                        task,
                        list(mine.values()),
                        graph,
                        progress=progress,
                        cancel=cancel,
                        keys=list(mine),
                        on_run=report if on_progress is not None else None,
                    )
                except BaseException:
                    # Release the claims so waiters re-claim instead of
                    # hanging — on a cancel, a worker crash, or a commit
                    # that died mid-publish (store I/O).  Keys committed
                    # before the abort are already in memory, so released
                    # waiters pick them up; the rest re-measure.
                    with self._lock:
                        for key in mine:
                            event = self._inflight.pop(key, None)
                            if event is not None:
                                event.set()
                    raise
                with self._lock:
                    for key, record in zip(mine, fresh, strict=True):
                        results[key] = record
                        self._inflight.pop(key).set()

            for key, event in waits.items():
                # Block outside the lock until the owning job lands (or
                # abandons) this key; a cancelled waiter holds no claims, so
                # bailing out here strands nobody.
                if cancel is None:
                    # Unbounded by design (and lock-free — see above): the
                    # owning job always sets the event, even when it dies,
                    # via the BaseException release path, so this wait
                    # cannot outlive the claim it watches.
                    event.wait()
                else:
                    while not event.wait(0.05):
                        cancel.raise_if_cancelled()
                landed = False
                with self._lock:
                    record = svc._memory.get(key)
                    if record is not None:
                        svc.stats.bump("shared_inflight")
                        results[key] = record
                        del remaining[key]
                        hits += 1
                        landed = True
                    # miss: the owner died before landing it — the key stays
                    # in ``remaining`` and the next round re-claims it.
                if landed:
                    report()

        return [results[key] for key in keys]
