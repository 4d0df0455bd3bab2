"""Task fingerprints: the identity a ground-truth record transfers under.

*Design Space for GNNs* (PAPERS.md) shows that design rankings transfer
across tasks when the tasks are close under a task-similarity metric.  The
fingerprint is our side of that bargain: a small, versioned summary of
everything that shapes a record's measurements — the graph statistics the
estimator already consumes (:class:`~repro.graphs.profiling.GraphProfile`)
plus the pre-determined task settings (architecture, platform) that gate
whether records are comparable at all.

A fingerprint is never stored: :func:`record_fingerprint` derives it from
a record alone, and the transfer corpus derives each stored record's once
(the record under a content-hash key never changes).  This module imports
nothing from the runtime layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FINGERPRINT_VERSION",
    "TaskFingerprint",
    "task_fingerprint",
    "record_fingerprint",
]

#: bump when the fingerprint layout or feature semantics change; it is
#: hashed into :attr:`TaskFingerprint.fingerprint_id`, so a bump regroups
#: every task family.
FINGERPRINT_VERSION = 1

#: how fast :meth:`TaskFingerprint.similarity` decays with feature distance.
SIMILARITY_SHARPNESS = 4.0

#: graph-statistics fields copied from :class:`GraphProfile`, in the order
#: they appear in :meth:`TaskFingerprint.as_features`.
_PROFILE_FIELDS = (
    "num_nodes",
    "num_edges",
    "feature_dim",
    "num_classes",
    "avg_degree",
    "max_degree",
    "degree_std",
    "degree_skew",
    "powerlaw_exponent",
    "homophily",
    "separability",
)


@dataclass(frozen=True)
class TaskFingerprint:
    """What a profiling task *is*, for transfer purposes.

    ``arch`` and ``platform`` are hard comparability gates (an estimator is
    fitted per architecture and times are platform-scaled); the graph
    statistics feed the soft :meth:`similarity`.  ``dataset`` is carried for
    reporting only — two datasets with identical statistics are identical
    donors.
    """

    dataset: str
    arch: str
    platform: str
    num_nodes: int
    num_edges: int
    feature_dim: int
    num_classes: int
    avg_degree: float
    max_degree: int
    degree_std: float
    degree_skew: float
    powerlaw_exponent: float
    homophily: float
    separability: float
    version: int = FINGERPRINT_VERSION

    @cached_property
    def fingerprint_id(self) -> str:
        """Stable content hash grouping records of one task family.

        ``dataset`` stays out on purpose: the id keys on what the estimator
        can actually see (stats + comparability gates), so a renamed dataset
        with identical statistics lands in the same donor group.
        """
        payload = {
            "version": self.version,
            "arch": self.arch,
            "platform": self.platform,
            **{f: getattr(self, f) for f in _PROFILE_FIELDS},
        }
        text = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def compatible(self, other: "TaskFingerprint") -> bool:
        """Hard transfer gate: records only mix within one arch/platform."""
        return self.arch == other.arch and self.platform == other.platform

    def as_features(self) -> np.ndarray:
        """Similarity-space encoding: counts log-scaled, moments raw.

        Non-finite statistics (an infinite power-law exponent on a
        degenerate degree sequence) are clamped so distances stay finite.
        """
        raw = np.array(
            [
                np.log1p(float(self.num_nodes)),
                np.log1p(float(self.num_edges)),
                np.log1p(float(self.feature_dim)),
                float(self.num_classes),
                self.avg_degree,
                np.log1p(float(self.max_degree)),
                self.degree_std,
                self.degree_skew,
                self.powerlaw_exponent,
                self.homophily,
                self.separability,
            ],
            dtype=np.float64,
        )
        return np.nan_to_num(raw, nan=0.0, posinf=1e3, neginf=-1e3)

    def similarity(self, other: "TaskFingerprint") -> float:
        """How transferable ``other``'s records are to this task, in ``(0, 1]``.

        ``exp(-SIMILARITY_SHARPNESS * d)``, where ``d`` is the mean relative
        per-feature difference of :meth:`as_features`: graphs ten times
        larger are far, and statistically identical graphs of any name
        score 1.  The arch/platform gate is :meth:`compatible`'s, not this.
        """
        a, b = self.as_features(), other.as_features()
        rel = np.abs(a - b) / (1.0 + 0.5 * (np.abs(a) + np.abs(b)))
        return float(np.exp(-SIMILARITY_SHARPNESS * float(rel.mean())))


def _quantize(value):
    """Round float statistics to 9 significant digits.

    The same graph profiled through different code paths (in-process vs a
    store round-trip vs a worker process) can differ in the last ulp of its
    derived moments; hashing raw floats would split one task into several
    fingerprint families over that noise.  Nine digits is far below any
    statistically meaningful difference and far above accumulation jitter.
    """
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.9g}")
    return value


def task_fingerprint(task, profile) -> TaskFingerprint:
    """Fingerprint of one ``(task, graph profile)`` pair.

    ``task`` needs ``dataset``/``arch``/``platform`` attributes and
    ``profile`` the :class:`GraphProfile` statistics fields — duck-typed so
    this module stays import-free of the config/runtime layers.
    """
    return TaskFingerprint(
        dataset=task.dataset,
        arch=task.arch,
        platform=task.platform,
        **{f: _quantize(getattr(profile, f)) for f in _PROFILE_FIELDS},
    )


def record_fingerprint(record) -> TaskFingerprint:
    """Fingerprint derived from a stored ground-truth record itself.

    Everything the fingerprint needs rides on the record (``task`` +
    ``graph_profile``), so the corpus indexes any stored record, whichever
    commit path — local workers, fleet — wrote it.
    """
    return task_fingerprint(record.task, record.graph_profile)
