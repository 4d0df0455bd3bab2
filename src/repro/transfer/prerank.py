"""Corpus-guided candidate pre-ranking for the shrunken profiling budget.

Cold navigation profiles a uniform random sample of the config space.  With
a :class:`~repro.transfer.warmstart.WarmStartPlan` in hand we can do better:
fit a *donor-only* estimator (similarity-weighted), predict every candidate
in the pool, and spend the shrunken budget where it teaches the most — the
AutoHEnsGNN recipe of a cheap proxy ranking gating the expensive full runs.

Selection is **stratified**, not top-k: the target estimator needs ground
truth across the whole objective range, so we pick evenly-spaced candidates
along the donor-predicted objective ordering.  Top-k would cluster the
budget at the (donor-)optimal corner and starve the model of contrast.

Any failure — donor records too degenerate to fit, prediction blow-ups —
falls back to the pool's natural prefix, which is exactly what the cold
path would have profiled first.
"""

from __future__ import annotations

import numpy as np

from repro.config.columns import ConfigColumns
from repro.estimator.graybox import GrayBoxEstimator
from repro.hardware.specs import get_platform

__all__ = ["select_candidates"]


def _stratified_indices(order: np.ndarray, budget: int) -> np.ndarray:
    """``budget`` evenly-spaced positions along ``order`` (dedup, backfill)."""
    n = len(order)
    picks = np.unique(np.linspace(0, n - 1, num=budget).round().astype(int))
    chosen = list(order[picks])
    if len(chosen) < budget:  # rounding collisions on tiny pools
        taken = set(chosen)
        chosen.extend(i for i in order if i not in taken)
        chosen = chosen[:budget]
    return np.array(chosen, dtype=int)


def select_candidates(plan, task, profile, pool, *, budget: int, seed: int = 0):
    """Pick ``budget`` configs from ``pool`` worth measuring, donor-guided.

    Returns a new list (never mutates ``pool``).  ``budget >= len(pool)``
    or any donor-model failure returns the pool prefix — the cold choice.
    """
    pool = list(pool)
    if budget >= len(pool):
        return pool
    try:
        estimator = GrayBoxEstimator(
            train_frac=task.train_frac, random_state=seed
        )
        estimator.fit(
            list(plan.records), sample_weight=np.asarray(plan.weights)
        )
        table = estimator.predict(
            ConfigColumns([c.canonical() for c in pool]),
            profile,
            get_platform(task.platform),
        )
        objectives = table * [1.0, 1.0, -1.0]  # (T, Γ, -Acc), all minimised
        lo = objectives.min(axis=0)
        span = objectives.max(axis=0) - lo
        span[span == 0.0] = 1.0
        score = ((objectives - lo) / span).mean(axis=1)
        order = np.argsort(score, kind="stable")
        picks = _stratified_indices(order, budget)
        return [pool[i] for i in picks]
    except Exception:
        return pool[:budget]
