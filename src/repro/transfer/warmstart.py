"""Warm-start planning: turn corpus neighbours into weighted donor records.

A :class:`TransferContext` owns a :class:`~repro.transfer.corpus.TransferCorpus`
plus a default :class:`~repro.transfer.policy.TransferPolicy`, and produces a
:class:`WarmStartPlan` per navigation: which donor task families to borrow
from, their records, the similarity-decayed sample weight of each record,
and the shrunken Step-2 profiling budget those records pay for.

The plan is advisory — the navigator decides what to do with it — and a
``None`` plan means "run cold": the corpus is empty, too dissimilar, or
transfer is disabled.  That degenerate path is contractually bit-identical
to a navigator built without transfer at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.runtime.profiler import GroundTruthRecord
from repro.transfer.corpus import TransferCorpus
from repro.transfer.fingerprint import TaskFingerprint, task_fingerprint
from repro.transfer.policy import TransferPolicy

__all__ = ["donor_weights", "WarmStartPlan", "TransferContext"]


def donor_weights(similarities: np.ndarray, *, decay: float) -> np.ndarray:
    """Per-record sample weights ``similarity ** decay``.

    Monotone in similarity for any positive decay, so a more similar donor
    never counts less than a less similar one; higher decay concentrates
    trust on near-twins.
    """
    if decay <= 0.0:
        raise ValueError("decay must be positive")
    sims = np.asarray(similarities, dtype=np.float64)
    if sims.size and (sims.min() < 0.0 or sims.max() > 1.0):
        raise ValueError("similarities must lie in [0, 1]")
    return sims**decay


@dataclass(frozen=True)
class WarmStartPlan:
    """Everything one navigation needs to start warm.

    ``records``/``weights`` align element-wise and feed straight into
    ``GrayBoxEstimator.fit(..., sample_weight=)`` behind the target task's
    own unit-weight measurements.  ``budget`` is the corpus-shrunk number
    of ground-truth runs Step 2 should still pay for (``runs_saved`` =
    what the cold run would have spent minus that).
    """

    fingerprint: TaskFingerprint
    donors: tuple[dict, ...]
    records: tuple[GroundTruthRecord, ...] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    coverage: float
    full_budget: int
    budget: int

    @property
    def runs_saved(self) -> int:
        return self.full_budget - self.budget

    def select(self, task, profile, pool, *, seed: int = 0):
        """Pre-rank ``pool`` with a donor-fitted estimator; see ``prerank``."""
        from repro.transfer.prerank import select_candidates

        return select_candidates(
            self, task, profile, pool, budget=self.budget, seed=seed
        )

    def summary(self) -> dict:
        """JSON-friendly digest for report extras / progress messages."""
        return {
            "fingerprint_id": self.fingerprint.fingerprint_id,
            "donors": list(self.donors),
            "donor_records": len(self.records),
            "coverage": round(self.coverage, 4),
            "full_budget": self.full_budget,
            "budget": self.budget,
            "runs_saved": self.runs_saved,
        }


class TransferContext:
    """Corpus + policy pair handed to navigators and the serving layer.

    Stateless between calls apart from the corpus index, so one context is
    safe to share across concurrent jobs; per-request policy overrides go
    through :meth:`with_policy`, which shares the underlying corpus.
    """

    #: donor records below this total cannot fit the estimator (its fit
    #: minimum) and force a cold fallback.
    MIN_DONOR_RECORDS = 8

    def __init__(
        self,
        corpus: TransferCorpus,
        policy: TransferPolicy | None = None,
        metrics=None,
    ) -> None:
        self.corpus = corpus
        self.policy = policy or TransferPolicy()
        self.metrics = metrics

    def with_policy(self, policy: TransferPolicy | None) -> "TransferContext":
        """Same corpus and metrics under a per-request policy override."""
        if policy is None:
            return self
        return TransferContext(self.corpus, policy=policy, metrics=self.metrics)

    def _inc(self, family, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(family, n)

    def plan(self, task, profile, *, full_budget: int) -> WarmStartPlan | None:
        """Build a warm-start plan for ``task``, or ``None`` to run cold.

        Refreshes the corpus (cheap: it loads only records it has not
        indexed yet), ranks compatible donor families by fingerprint
        similarity, and — given enough donor records to fit an estimator —
        shrinks the profiling budget in proportion to how much of it the
        donors plausibly cover:
        ``coverage = min(1, Σ sim_i · min(1, n_i / full_budget))``.
        """
        # Imported here, not at module level: the serving package imports
        # this module.
        from repro.serving.metrics import (
            TRANSFER_COLD_FALLBACKS,
            TRANSFER_DONOR_RECORDS,
            TRANSFER_RUNS_SAVED,
            TRANSFER_WARM_STARTS,
        )

        if not self.policy.enabled:
            return None
        self.corpus.refresh()
        fingerprint = task_fingerprint(task, profile)
        donors = self.corpus.similar(
            fingerprint,
            min_similarity=self.policy.min_similarity,
            max_donors=self.policy.max_donors,
            max_donor_records=self.policy.max_donor_records,
        )
        records: list[GroundTruthRecord] = []
        sims: list[float] = []
        infos: list[dict] = []
        coverage = 0.0
        for entry, sim, donor_records in donors:
            records.extend(donor_records)
            sims.extend([sim] * len(donor_records))
            coverage += sim * min(1.0, len(donor_records) / max(full_budget, 1))
            infos.append(
                {
                    "fingerprint_id": entry.fingerprint_id,
                    "dataset": entry.fingerprint.dataset,
                    "similarity": round(sim, 4),
                    "records": len(donor_records),
                }
            )
        if len(records) < self.MIN_DONOR_RECORDS:
            self._inc(TRANSFER_COLD_FALLBACKS)
            return None
        coverage = min(1.0, coverage)
        budget = int(round(full_budget * (1.0 - self.policy.max_shrink * coverage)))
        budget = min(full_budget, max(self.policy.min_budget, budget))
        plan = WarmStartPlan(
            fingerprint=fingerprint,
            donors=tuple(infos),
            records=tuple(records),
            weights=donor_weights(np.array(sims), decay=self.policy.decay),
            coverage=coverage,
            full_budget=full_budget,
            budget=budget,
        )
        self._inc(TRANSFER_WARM_STARTS)
        self._inc(TRANSFER_DONOR_RECORDS, len(plan.records))
        self._inc(TRANSFER_RUNS_SAVED, plan.runs_saved)
        return plan
