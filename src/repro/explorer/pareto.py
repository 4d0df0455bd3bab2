"""Pareto-front utilities over minimisation objective vectors (T, Γ, -Acc)."""

from __future__ import annotations

import numpy as np

from repro.errors import ExplorationError

__all__ = ["dominates", "pareto_mask", "pareto_front_indices", "hypervolume_2d"]


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return bool(np.all(a <= b) and np.any(a < b))


#: rows per block of the skyline sweep, and the cap on the cells (rivals x
#: block rows x objectives) of one comparison: the temporaries stay near
#: 1 MiB however large the set or its front grows.
_BLOCK_ROWS = 256
_BLOCK_CELLS = 1 << 19


def _dominated(rows: np.ndarray, rivals: np.ndarray) -> np.ndarray:
    """Which of ``rows`` some row of ``rivals`` dominates."""
    no_worse = np.ones((len(rows), len(rivals)), dtype=bool)
    better = np.zeros_like(no_worse)
    for mine, theirs in zip(rows.T[:, :, None], rivals.T[:, None, :], strict=True):
        no_worse &= theirs <= mine
        better |= theirs < mine
    return (no_worse & better).any(axis=1)


def pareto_mask(objectives: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows (all objectives minimised).

    A sort-based skyline: a row can only be dominated by a row that precedes
    it lexicographically, so the rows are swept in lexicographic order, a
    block at a time; a block is filtered against the front found so far, and
    what is left of it against itself — O(n log n + n*f) for a front of f
    rows, and never an n x n array.  Every copy of a non-dominated row stays;
    rows holding a NaN neither dominate nor are dominated.

    More rows than one block are prefiltered first.  A row strictly below
    every earlier row in some objective has no dominator (a dominator would
    sort before it, and no earlier row is as good in that objective), so it
    is on the front; one pass with these rows removes every row they
    dominate.  Only the rest enter the sweep, and the sweep stays exact on
    them: a row dominated by a removed row is dominated by what removed it,
    since dominance is transitive, so it was removed too.
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    n, width = objectives.shape
    if width == 0:  # nothing to compare on: every row ties
        return np.ones(n, dtype=bool)
    mask = np.zeros(n, dtype=bool)
    order = np.lexsort(objectives.T[::-1])
    if n > _BLOCK_ROWS:
        order = _prefilter(objectives, order, mask)
    _sweep(objectives, order, mask)
    return mask


def _prefilter(objectives: np.ndarray, order: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mark the rows below every earlier row in some objective; return the
    rest of ``order`` that none of them dominates."""
    ranked = objectives[order]
    # the least of the earlier rows, per objective (NaN entries skipped: a
    # row holding one dominates nothing)
    earlier = np.empty_like(ranked)
    earlier[0] = np.inf
    np.fmin.accumulate(ranked[:-1], axis=0, out=earlier[1:])
    leads = (ranked < earlier).any(axis=1)
    mask[order[leads]] = True
    leaders, rest = ranked[leads], order[~leads]
    size = max(1, _BLOCK_CELLS // (objectives.shape[1] * max(len(leaders), 1)))
    return np.concatenate(
        [
            rows[~_dominated(objectives[rows], leaders)]
            for rows in np.split(rest, range(size, len(rest), size))
        ]
    )


def _sweep(objectives: np.ndarray, order: np.ndarray, mask: np.ndarray) -> None:
    """Mark the rows of ``order`` (lexicographic) that no row of it dominates."""
    width = objectives.shape[1]
    front = np.empty((len(order), width))  # its first ``found`` rows are the front
    found = 0
    start = 0
    while start < len(order):
        size = min(_BLOCK_ROWS, max(1, _BLOCK_CELLS // (width * max(found, _BLOCK_ROWS))))
        rows = order[start : start + size]
        rows = rows[~_dominated(objectives[rows], front[:found])]
        block = objectives[rows]
        kept = ~_dominated(block, block)
        mask[rows[kept]] = True
        survivors = block[kept]
        front[found : found + len(survivors)] = survivors
        found += len(survivors)
        start += size


def pareto_front_indices(objectives: np.ndarray) -> np.ndarray:
    """Indices of the Pareto-optimal rows, sorted by the first objective."""
    mask = pareto_mask(objectives)
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return idx
    order = np.argsort(np.atleast_2d(objectives)[idx, 0], kind="stable")
    return idx[order]


def hypervolume_2d(
    objectives: np.ndarray, reference: np.ndarray
) -> float:
    """Dominated hypervolume of a 2-D front w.r.t. a reference point.

    Both objectives minimised; points beyond the reference contribute
    nothing.  Used by the exploration-quality ablation bench.
    """
    objectives = np.atleast_2d(np.asarray(objectives, dtype=np.float64))
    reference = np.asarray(reference, dtype=np.float64)
    if objectives.shape[1] != 2 or reference.shape != (2,):
        raise ExplorationError("hypervolume_2d expects 2-D objectives")
    pts = objectives[pareto_mask(objectives)]
    pts = pts[np.all(pts <= reference, axis=1)]
    if pts.size == 0:
        return 0.0
    pts = pts[np.argsort(pts[:, 0])]
    volume = 0.0
    prev_x = reference[0]
    # Sweep right-to-left: each point adds a rectangle up to the previous x.
    for x, y in pts[::-1]:
        volume += (prev_x - x) * (reference[1] - y)
        prev_x = x
    return float(volume)
