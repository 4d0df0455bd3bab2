"""The transfer corpus: a queryable cross-task index over the result store.

The :class:`~repro.runtime.parallel.ResultStore` holds one JSON record per
measured candidate; the corpus derives each record's task fingerprint and
folds them into an in-memory index grouped by task family
(``fingerprint_id``), and answers *"which stored tasks resemble this one?"*
by :meth:`TaskFingerprint.similarity`, a distance in fingerprint feature
space.  The score reads the two fingerprints alone, so a search loads
only the records of the donors it returns, never the query's own.

Locking: ``_lock`` guards only the in-memory index.  All store I/O — the
directory scan and record loads — happens outside it, so
the corpus lock is a leaf in the lock-order graph (no edge into the
store's own lock).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.runtime.parallel import ResultStore
from repro.runtime.profiler import GroundTruthRecord
from repro.transfer.fingerprint import TaskFingerprint, record_fingerprint

__all__ = ["CorpusTask", "TransferCorpus"]


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
        min_similarity: float = 0.0,
        max_donors: int | None = None,
        max_donor_records: int | None = None,
    ) -> list[tuple[CorpusTask, float, list[GroundTruthRecord]]]:
        """Donor task families ranked by similarity to ``query``.

        Hard gates first: the query's own family is excluded (its records
        are exact cache hits, not transfer donors) and donors must be
        arch/platform-compatible.  Survivors are scored by
        ``query.similarity``, thresholded at ``min_similarity`` and
        returned best-first with their loaded records — deterministically,
        ties broken by ``fingerprint_id``.  The score needs no record, so
        records are loaded only for the donors returned (and for any that
        turn out to have none left in the store, which are skipped).
        """
        ranked = sorted(
            (
                (query.similarity(entry.fingerprint), entry)
                for entry in self.tasks()
                if entry.fingerprint_id != query.fingerprint_id
                and query.compatible(entry.fingerprint)
            ),
            key=lambda item: (-item[0], item[1].fingerprint_id),
        )
        donors: list[tuple[CorpusTask, float, list[GroundTruthRecord]]] = []
        for value, entry in ranked:
            if value < min_similarity or len(donors) == max_donors:
                break
            records = self.load_records(entry.fingerprint_id, limit=max_donor_records)
            if records:
                donors.append((entry, value, records))
        return donors

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
