"""Server metrics: every family declared once, behind one registry.

Each metric family is a module-level :class:`MetricFamily` below, with its
kind — a *counter* (monotonic, bumped at the moment the thing happens) or a
*gauge* (a callable read at scrape time, so it is always current and costs
nothing between scrapes) — and its label keys.  Call sites pass the
family object, never a name string: a misspelt family is an undefined
name, a counter cannot reach :meth:`MetricsRegistry.gauge` (or the
reverse), and a label key the declaration does not list raises.

Every consumer — ``/v1/metrics``, ``client.metrics()``, the CLI's
``stats`` / ``serve`` summaries — reads one :meth:`MetricsRegistry.snapshot`,
keyed by series name: the family name, or for a labeled series the
Prometheus-style :func:`labeled` rendering (``fleet_claims{executor="ex-0000"}``),
which sorts next to its family.  :meth:`MetricsRegistry.drop` forgets
every series one entity labels when that entity goes away.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

__all__ = ["FAMILIES", "MetricFamily", "MetricsRegistry", "labeled"]


def labeled(name: str, **labels: str) -> str:
    """Prometheus-style labeled series name: ``name{k="v",...}``, key-sorted,
    so the same (family, labels) pair always lands on the same series."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


@dataclass(frozen=True)
class MetricFamily:
    """One declared metric family: name, kind and label keys.

    A labeled *counter* keeps an unlabeled total beside its per-entity
    series: :meth:`MetricsRegistry.inc` with labels bumps both, without
    labels only the total, so the total survives the entity's series being
    dropped.  A labeled gauge has per-entity series only.
    """

    name: str
    kind: str  # "counter" | "gauge"
    labels: tuple[str, ...] = ()

    def series(self, kind: str, labels: dict[str, str]) -> str:
        """The series name for ``labels``, checked against the declaration."""
        if kind != self.kind:
            raise TypeError(f"{self.name!r} is a {self.kind}, not a {kind}")
        total = kind == "counter" and not labels
        if set(labels) != set(self.labels) and not total:
            raise ValueError(
                f"{self.name!r} takes labels {self.labels}, got {tuple(labels)}"
            )
        return labeled(self.name, **labels)


def _counter(name: str, *labels: str) -> MetricFamily:
    return MetricFamily(name, "counter", labels)


def _gauge(name: str, *labels: str) -> MetricFamily:
    return MetricFamily(name, "gauge", labels)


# ----------------------------------------------------------------- counters
JOBS_SUBMITTED = _counter("jobs_submitted")
JOBS_DONE = _counter("jobs_done")
JOBS_FAILED = _counter("jobs_failed")
JOBS_CANCELLED = _counter("jobs_cancelled")
EVENTS_EMITTED = _counter("events_emitted")
EVENTS_DROPPED = _counter("events_dropped")
FLEET_CLAIMS = _counter("fleet_claims", "executor")
FLEET_COMMITS = _counter("fleet_commits", "executor")
FLEET_COMMIT_DUPLICATES = _counter("fleet_commit_duplicates")
FLEET_LEASE_EXPIRIES = _counter("fleet_lease_expiries", "executor")
TRANSFER_WARM_STARTS = _counter("transfer_warm_starts")
TRANSFER_COLD_FALLBACKS = _counter("transfer_cold_fallbacks")
TRANSFER_DONOR_RECORDS = _counter("transfer_donor_records")
TRANSFER_RUNS_SAVED = _counter("transfer_runs_saved")
RESULTS_EXPIRED = _counter("results_expired")

# ------------------------------------------------------------------- gauges
JOBS_PENDING = _gauge("jobs_pending")
JOBS_RUNNING = _gauge("jobs_running")
PROFILING_EXECUTED = _gauge("profiling_executed")
PROFILING_TRAININGS = _gauge("profiling_trainings")
PROFILING_CACHE_HITS = _gauge("profiling_cache_hits")
PROFILING_DEDUPLICATED = _gauge("profiling_deduplicated")
PROFILING_SHARED_INFLIGHT = _gauge("profiling_shared_inflight")
PROFILING_EVICTIONS = _gauge("profiling_evictions")
ESTIMATOR_FITS = _gauge("estimator_fits")
ESTIMATOR_FIT_HITS = _gauge("estimator_fit_hits")
STORE_PERSISTENT = _gauge("store_persistent")
STORE_ENTRIES = _gauge("store_entries")
STORE_BYTES = _gauge("store_bytes")
FLEET_EXECUTORS = _gauge("fleet_executors")
FLEET_PENDING = _gauge("fleet_pending")
FLEET_LEASED = _gauge("fleet_leased")
FLEET_HEARTBEAT_AGE_SECONDS = _gauge("fleet_heartbeat_age_seconds", "executor")
TRANSFER_CORPUS_TASKS = _gauge("transfer_corpus_tasks")
TRANSFER_CORPUS_RECORDS = _gauge("transfer_corpus_records")
SPMM_CALLS = _gauge("spmm_calls")
SPMM_SECONDS = _gauge("spmm_seconds")

#: every declared family by name.
FAMILIES: dict[str, MetricFamily] = {
    value.name: value
    for value in list(globals().values())
    if isinstance(value, MetricFamily)
}


class MetricsRegistry:
    """Thread-safe registry of counter and gauge series.

    Counter series are created on first :meth:`inc` (so emission sites
    never need a registration phase) and only ever grow.  Gauge series are
    bound once to a zero-argument callable; a gauge that raises at scrape
    time reports ``0`` rather than poisoning the whole snapshot — metrics
    must never take the server down.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}  # guarded-by: _lock
        self._gauges: dict[str, Callable[[], float]] = {}  # guarded-by: _lock
        #: labeled series name -> its label items, for :meth:`drop`.
        self._labels: dict[str, frozenset] = {}  # guarded-by: _lock

    # ---------------------------------------------------------------- counters
    def inc(self, family: MetricFamily, n: int = 1, **labels: str) -> int:
        """Add ``n`` to a counter (created at 0); returns the series total.

        With labels, the family's unlabeled total is bumped too.
        """
        name = family.series("counter", labels)
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            if labels:
                self._labels[name] = frozenset(labels.items())
                self._counters[family.name] = (
                    self._counters.get(family.name, 0) + n
                )
            total = self._counters.get(name, 0) + n
            self._counters[name] = total
            return total

    def counter(self, name: str) -> int:
        """Current value of counter series ``name`` (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------ gauges
    def gauge(
        self, family: MetricFamily, fn: Callable[[], float], **labels: str
    ) -> None:
        """Bind a gauge series to a zero-argument read callable."""
        name = family.series("gauge", labels)
        with self._lock:
            if labels:
                self._labels[name] = frozenset(labels.items())
            self._gauges[name] = fn

    # ---------------------------------------------------------------- removal
    def drop(self, **labels: str) -> int:
        """Forget every series (either kind) carrying all of ``labels``;
        returns how many went.  A deregistered fleet executor must not haunt
        every later snapshot, and one call cannot miss one of its series."""
        wanted = set(labels.items())
        with self._lock:
            gone = [name for name, items in self._labels.items() if wanted <= items]
            for name in gone:
                del self._labels[name]
                self._counters.pop(name, None)
                self._gauges.pop(name, None)
        return len(gone)

    # ---------------------------------------------------------------- scraping
    def value(self, name: str) -> float:
        """One series by name — counter value or evaluated gauge."""
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            fn = self._gauges.get(name)
        if fn is None:
            raise KeyError(name)
        return self._read(fn)

    def snapshot(self) -> dict[str, float]:
        """Every series, name-sorted: counters as-is, gauges evaluated now.

        Gauge callables run *outside* the registry lock — they may take
        other locks (the store's, the server's) and must not serialize
        against concurrent ``inc`` calls on the hot path.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        out: dict[str, float] = dict(counters)
        for name, fn in gauges.items():
            out[name] = self._read(fn)
        return dict(sorted(out.items()))

    @staticmethod
    def _read(fn: Callable[[], float]) -> float:
        try:
            value = fn()
        except Exception:
            return 0
        return value if isinstance(value, (int, float)) else 0
