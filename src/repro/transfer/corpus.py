"""The transfer corpus: a queryable cross-task index over the result store.

The :class:`~repro.runtime.parallel.ResultStore` holds one JSON record per
measured candidate; the corpus derives each record's task fingerprint and
folds them into an in-memory index grouped by task family
(``fingerprint_id``), and answers *"which stored tasks resemble this one?"*
through a :class:`TaskSimilarity` metric.

Two metrics ship, both behind the same interface:

* :class:`FeatureSpaceSimilarity` — distance in fingerprint feature space
  (graph statistics).  Always answerable, even for a task the corpus has
  never seen.
* :class:`AnchorRankSimilarity` — Spearman rank correlation of measured
  time over shared *anchor configs* (the baseline templates every
  navigation profiles), the *Design Space for GNNs* recipe.  It needs the
  query task's own anchor measurements, so it only refines the ranking for
  returning tasks and falls back to feature space otherwise.

Locking: ``_lock`` guards only the in-memory index.  All store I/O — the
directory scan and record loads — happens outside it, so
the corpus lock is a leaf in the lock-order graph (no edge into the
store's own lock).
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass

import numpy as np

from repro.config.templates import TEMPLATES
from repro.runtime.parallel import ResultStore
from repro.runtime.profiler import GroundTruthRecord
from repro.transfer.fingerprint import TaskFingerprint, record_fingerprint
from repro.wire import encode

__all__ = [
    "CorpusTask",
    "TaskSimilarity",
    "FeatureSpaceSimilarity",
    "AnchorRankSimilarity",
    "get_similarity",
    "TransferCorpus",
]


@dataclass(frozen=True)
class CorpusTask:
    """One task family the corpus knows: its fingerprint and record keys."""

    fingerprint: TaskFingerprint
    keys: tuple[str, ...]

    @property
    def fingerprint_id(self) -> str:
        return self.fingerprint.fingerprint_id

    @property
    def num_records(self) -> int:
        return len(self.keys)


# ---------------------------------------------------------------- similarity
class TaskSimilarity(abc.ABC):
    """Scores how transferable one stored task's records are to a query.

    Implementations return a score in ``[0, 1]`` (1 = same task).  They may
    consult the query task's *own* stored records (``query_records``) when
    the corpus has seen it before; a brand-new task passes an empty list.
    """

    name = "base"

    @abc.abstractmethod
    def score(
        self,
        query: TaskFingerprint,
        donor: TaskFingerprint,
        *,
        query_records: list[GroundTruthRecord],
        donor_records: list[GroundTruthRecord],
    ) -> float:
        """Similarity of ``donor`` to ``query`` in ``[0, 1]``."""


class FeatureSpaceSimilarity(TaskSimilarity):
    """Distance in fingerprint feature space mapped to ``exp(-k * d)``.

    ``d`` is the mean relative per-feature difference, so graphs ten times
    larger are far, and statistically-identical graphs of any name score 1.
    """

    name = "feature"

    def __init__(self, *, sharpness: float = 4.0) -> None:
        if sharpness <= 0:
            raise ValueError("sharpness must be positive")
        self.sharpness = sharpness

    def score(
        self,
        query: TaskFingerprint,
        donor: TaskFingerprint,
        *,
        query_records: list[GroundTruthRecord],
        donor_records: list[GroundTruthRecord],
    ) -> float:
        a, b = query.as_features(), donor.as_features()
        rel = np.abs(a - b) / (1.0 + 0.5 * (np.abs(a) + np.abs(b)))
        return float(np.exp(-self.sharpness * float(rel.mean())))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks: ties share their average rank.

    Naive argsort-of-argsort ranks break ties by position, which makes a
    constant vector look perfectly ordered — and a donor whose anchor times
    are all equal would then correlate perfectly with anything.  Average
    ranks leave a constant vector with zero rank variance instead, which the
    caller treats as "no signal".
    """
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    starts = np.cumsum(counts) - counts
    average = starts + (counts - 1) / 2.0
    return average[inverse].astype(np.float64)


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation without scipy (tie-aware fractional ranks)."""
    ra = _ranks(a)
    rb = _ranks(b)
    if ra.std() == 0.0 or rb.std() == 0.0:
        return 0.0
    return float(np.corrcoef(ra, rb)[0, 1])


class AnchorRankSimilarity(TaskSimilarity):
    """Rank correlation of measured time over shared anchor configs.

    The anchors are the baseline templates — every navigation profiles
    them, so returning tasks always share them with every donor.  With
    fewer than ``min_anchors`` shared measurements the metric is undefined
    and the feature-space fallback answers instead.
    """

    name = "anchor"

    def __init__(
        self,
        *,
        min_anchors: int = 3,
        fallback: TaskSimilarity | None = None,
    ) -> None:
        self.min_anchors = min_anchors
        self.fallback = fallback or FeatureSpaceSimilarity()
        self._anchors = frozenset(c.canonical() for c in TEMPLATES.values())

    def _anchor_times(self, records: list[GroundTruthRecord]) -> dict:
        times: dict = {}
        for record in records:
            config = record.config.canonical()
            if config in self._anchors and config not in times:
                times[config] = record.time_s
        return times

    def score(
        self,
        query: TaskFingerprint,
        donor: TaskFingerprint,
        *,
        query_records: list[GroundTruthRecord],
        donor_records: list[GroundTruthRecord],
    ) -> float:
        mine = self._anchor_times(query_records)
        theirs = self._anchor_times(donor_records)
        shared = sorted(
            (c for c in mine if c in theirs),
            key=lambda c: repr(sorted(encode(c).items())),
        )
        if len(shared) < self.min_anchors:
            return self.fallback.score(
                query,
                donor,
                query_records=query_records,
                donor_records=donor_records,
            )
        rho = _spearman(
            np.array([mine[c] for c in shared]),
            np.array([theirs[c] for c in shared]),
        )
        return float(np.clip(rho, 0.0, 1.0))


_SIMILARITIES = {
    FeatureSpaceSimilarity.name: FeatureSpaceSimilarity,
    AnchorRankSimilarity.name: AnchorRankSimilarity,
}


def get_similarity(name: str) -> TaskSimilarity:
    """Instantiate a registered similarity metric by policy name."""
    try:
        return _SIMILARITIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown similarity {name!r}; known: {sorted(_SIMILARITIES)}"
        ) from None


# -------------------------------------------------------------------- corpus
class TransferCorpus:
    """Similarity-searchable index of every task family in one store.

    The index maps ``fingerprint_id -> CorpusTask`` and is rebuilt by
    :meth:`refresh`, which derives each stored record's fingerprint once
    (keys are content hashes: the record under a key never changes) and
    keeps it across refreshes.  Queries are deterministic: ties in
    similarity break on ``fingerprint_id``.
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._tasks: dict[str, CorpusTask] = {}  # guarded-by: _lock
        #: store key -> its record's fingerprint, for every indexed key.
        self._fingerprints: dict[str, TaskFingerprint] = {}  # guarded-by: _lock

    def refresh(self) -> int:
        """Re-index the store; returns the number of task families.

        Loads only the records of keys the last refresh did not index, and
        drops the keys that left the store.  The scan runs outside
        ``_lock``; only the final swap takes it.  A record that vanished
        mid-scan or is corrupt is skipped — it re-appears on the next
        refresh if it comes back.
        """
        with self._lock:
            known = self._fingerprints
        fingerprints: dict[str, TaskFingerprint] = {}
        grouped: dict[str, tuple[TaskFingerprint, list[str]]] = {}
        for key in self.store.keys():
            fingerprint = known.get(key)
            if fingerprint is None:
                record = self.store.load(key)
                if record is None:
                    continue
                fingerprint = record_fingerprint(record)
            fingerprints[key] = fingerprint
            entry = grouped.setdefault(fingerprint.fingerprint_id, (fingerprint, []))
            entry[1].append(key)
        tasks = {
            fid: CorpusTask(fingerprint=fp, keys=tuple(keys))
            for fid, (fp, keys) in grouped.items()
        }
        with self._lock:
            self._fingerprints = fingerprints
            self._tasks = tasks
            return len(self._tasks)

    def tasks(self) -> list[CorpusTask]:
        """Every indexed task family, ordered by ``fingerprint_id``."""
        with self._lock:
            entries = list(self._tasks.values())
        return sorted(entries, key=lambda t: t.fingerprint_id)

    def task(self, fingerprint_id: str) -> CorpusTask | None:
        with self._lock:
            return self._tasks.get(fingerprint_id)

    @property
    def num_tasks(self) -> int:
        with self._lock:
            return len(self._tasks)

    @property
    def num_records(self) -> int:
        with self._lock:
            return sum(t.num_records for t in self._tasks.values())

    def load_records(
        self, fingerprint_id: str, *, limit: int | None = None
    ) -> list[GroundTruthRecord]:
        """Records of one task family, in deterministic (sorted-key) order.

        Keys whose record was evicted between refresh and load are skipped;
        ``limit`` caps how many records are parsed off disk.
        """
        entry = self.task(fingerprint_id)
        if entry is None:
            return []
        records: list[GroundTruthRecord] = []
        for key in entry.keys:
            record = self.store.load(key)
            if record is not None:
                records.append(record)
            if limit is not None and len(records) >= limit:
                break
        return records

    def similar(
        self,
        query: TaskFingerprint,
        *,
        similarity: TaskSimilarity,
        min_similarity: float = 0.0,
        max_donors: int | None = None,
        max_donor_records: int | None = None,
        query_records: list[GroundTruthRecord] | None = None,
    ) -> list[tuple[CorpusTask, float, list[GroundTruthRecord]]]:
        """Donor task families ranked by similarity to ``query``.

        Hard gates first: the query's own family is excluded (its records
        are exact cache hits, not transfer donors) and donors must be
        arch/platform-compatible.  Survivors are scored, thresholded at
        ``min_similarity`` and returned best-first with their loaded
        records — deterministically, ties broken by ``fingerprint_id``.
        """
        if query_records is None:
            query_records = self.load_records(
                query.fingerprint_id, limit=max_donor_records
            )
        scored: list[tuple[CorpusTask, float, list[GroundTruthRecord]]] = []
        for entry in self.tasks():
            if entry.fingerprint_id == query.fingerprint_id:
                continue
            if not query.compatible(entry.fingerprint):
                continue
            donor_records = self.load_records(
                entry.fingerprint_id, limit=max_donor_records
            )
            if not donor_records:
                continue
            value = similarity.score(
                query,
                entry.fingerprint,
                query_records=query_records,
                donor_records=donor_records,
            )
            if value >= min_similarity:
                scored.append((entry, float(value), donor_records))
        scored.sort(key=lambda item: (-item[1], item[0].fingerprint_id))
        if max_donors is not None:
            scored = scored[:max_donors]
        return scored

    def stats(self) -> dict:
        """Corpus summary for the CLI / metrics (no store I/O)."""
        tasks = self.tasks()
        return {
            "tasks": len(tasks),
            "records": sum(t.num_records for t in tasks),
            "families": [
                {
                    "fingerprint_id": t.fingerprint_id,
                    "dataset": t.fingerprint.dataset,
                    "arch": t.fingerprint.arch,
                    "platform": t.fingerprint.platform,
                    "num_nodes": t.fingerprint.num_nodes,
                    "num_edges": t.fingerprint.num_edges,
                    "records": t.num_records,
                }
                for t in tasks
            ],
        }
