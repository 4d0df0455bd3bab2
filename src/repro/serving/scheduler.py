"""Cross-job memo of fitted estimators, and the transfer corpus.

Many concurrently-running jobs delegate Step-2 profiling to one shared
:class:`~repro.runtime.parallel.ProfilingService`, which already trains
each candidate once however many jobs ask for it.  Jobs whose Step 2 ends
in the same records fit the same gray-box estimator, so
:class:`SharedProfilingService` memoises fitted estimators
(:meth:`SharedProfilingService.fit_estimator`) and a warm repeat job fits
nothing.  It also holds the :class:`~repro.transfer.corpus.TransferCorpus`
over the service's store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.estimator.graybox import GrayBoxEstimator
from repro.runtime.parallel import ProfilingService
from repro.runtime.profiler import GroundTruthRecord
from repro.transfer.corpus import TransferCorpus

__all__ = ["SharedProfilingService"]

#: fitted estimators one service keeps; the least recently used goes first.
#: A fitted estimator is a few hundred tree nodes (kilobytes).  The cap is a
#: memory bound, not a measured working set: the only served load measured
#: so far (``serve_http``) asks for 4 distinct keys and never evicts.
_FITTED_ESTIMATORS = 64


class SharedProfilingService:
    """Thread-safe front of one profiling service for many jobs: the
    service profiles, this wrapper memoises fitted estimators.

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

    def profile(self, task, configs, **kwargs) -> list[GroundTruthRecord]:
        """:meth:`ProfilingService.profile` of the shared service."""
        # Kept as a named hop: the perf ledger traces it as
        # ``serving.shared_profile``, and its tests require that metric.
        return self.service.profile(task, configs, **kwargs)
