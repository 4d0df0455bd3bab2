"""Depth-first design-space exploration with constraint pruning (Sec. 3.3).

The explorer walks the design space's knobs in order (the space *is* the
search tree), consulting the performance estimator instead of executing
candidates.  At each internal node it estimates an *optimistic completion* —
the partial assignment finished with the per-knob values that individually
minimise time and memory and maximise accuracy (pre-computed by sensitivity
probing) — and prunes the subtree when even that optimist violates a runtime
constraint.  Leaves surviving the walk are batch-estimated and returned.

The walk runs on the space's :class:`~repro.config.space.Enumeration`: a
tree node is a range of raw leaf numbers, a whole tree level is an integer
array, and an optimistic completion is itself a leaf of the tree — so a
level's bounds are one array lookup into the estimates, which a single
``predict_columns`` per level fills in from a row slice of the
enumeration's columns, each candidate at most once.  The result keeps the
estimates as one ``(T, Γ, Acc)`` table
(:class:`~repro.estimator.graybox.PerfRows`): a :class:`PredictedPerf` is
made only when a caller reads one (``DESIGN.md``, *The explore stage*).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config.settings import TrainingConfig
from repro.config.space import DesignSpace
from repro.errors import ExplorationError
from repro.estimator.graybox import GrayBoxEstimator, PerfRows, PredictedPerf
from repro.explorer.constraints import RuntimeConstraint
from repro.graphs.profiling import GraphProfile
from repro.hardware.specs import Platform

__all__ = ["ExplorationResult", "DFSExplorer"]

#: relative slack on subtree cuts: generous, because the optimistic
#: completion is interaction-blind and a wrong cut loses whole subtrees.
_PRUNE_SLACK = 0.6
#: relative slack on the final per-candidate feasibility filter.
_FILTER_SLACK = 0.25
#: prune only when at most this many knobs remain unassigned: the optimistic
#: completion is probed knob-by-knob, so its bound is trustworthy near the
#: leaves but loose near the root, where a wrong cut removes thousands of
#: candidates at once.
_PRUNE_MAX_REMAINING = 3


@dataclass
class ExplorationResult:
    """All surviving candidates with their estimated performance."""

    candidates: list[TrainingConfig]
    #: one estimate per candidate, held as a :class:`PerfRows` over
    #: :attr:`table` (a list passed in is read into one); the wire reads
    #: and writes it as the list of ``PredictedPerf``.
    predictions: list[PredictedPerf]
    visited_leaves: int = 0
    pruned_subtrees: int = 0
    evaluated: int = 0
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.predictions = PerfRows.of(self.predictions)

    @property
    def table(self) -> np.ndarray:
        """The ``(n, 3)`` read-only ``(T, Γ, Acc)`` rows of ``candidates``."""
        return self.predictions.table

    def objectives(self) -> np.ndarray:
        """Stacked (T, Γ, -Acc) rows for Pareto analysis."""
        out = self.table.copy()
        np.negative(out[:, 2], out=out[:, 2])
        return out


class DFSExplorer:
    """Estimator-guided DFS over a :class:`DesignSpace`."""

    def __init__(
        self,
        space: DesignSpace,
        estimator: GrayBoxEstimator,
        profile: GraphProfile,
        platform: Platform,
    ) -> None:
        self.space = space
        self.estimator = estimator
        self.profile = profile
        self.platform = platform
        self._optimistic_digits: np.ndarray | None = None

    # ----------------------------------------------------- optimistic bounds
    def _probe_optimistic_digits(
        self, estimate, shape: list[int], strides: list[int]
    ) -> np.ndarray:
        """Per-knob value indices that individually minimise each metric.

        One-at-a-time sensitivity probe around the *centre of the space*
        (median domain value per knob) — probing around an out-of-space base
        config would rank knob values in contexts the search never visits.
        Row ``m`` completes partial assignments optimistically for metric
        ``m`` of (time, memory, accuracy) during pruning.
        """
        if self._optimistic_digits is not None:
            return self._optimistic_digits
        centre = sum(size // 2 * stride for size, stride in zip(shape, strides, strict=True))
        # Every probe point differs from the centre in one digit, so it is a
        # leaf too: leaf ``centre + (j - size // 2) * stride`` sets a knob to j.
        probes = [
            centre + (np.arange(size) - size // 2) * stride
            for size, stride in zip(shape, strides, strict=True)
        ]
        table = estimate(self.space.enumeration.leaf_candidate[np.concatenate(probes)])
        best = np.empty((3, len(shape)), dtype=np.intp)
        for knob, rows in enumerate(np.split(table, np.cumsum(shape)[:-1])):
            best[:, knob] = (
                np.argmin(rows[:, 0]),
                np.argmin(rows[:, 1]),
                np.argmax(rows[:, 2]),
            )
        self._optimistic_digits = best
        return best

    def _walk(self, constraint: RuntimeConstraint, estimate) -> tuple[np.ndarray, int]:
        """The raw leaves the pruned DFS reaches, and the subtrees it cut.

        Level by level through the prune zone: the nodes of a level are
        numbered by their assignment prefix, node ``p`` covers the leaves
        ``p * span .. (p + 1) * span - 1``, and its completion for a metric
        is the leaf ``p * span + offset`` whose remaining digits are that
        metric's optimistic ones.  The bound combines the three completions'
        own metrics (infeasible in itself, but a valid optimist).
        """
        shape = [len(values) for values in self.space.domains.values()]
        strides = _strides(shape)
        leaf_candidate = self.space.enumeration.leaf_candidate
        best = self._probe_optimistic_digits(estimate, shape, strides)
        first = max(0, len(shape) - _PRUNE_MAX_REMAINING)
        alive = np.arange(int(np.prod(shape[:first])))
        pruned = 0
        metric = np.arange(3)
        for level in range(first, len(shape)):
            span = strides[level] * shape[level]
            offsets = best[:, level:] @ np.array(strides[level:])
            completions = leaf_candidate[alive[:, None] * span + offsets]
            table = estimate(completions.ravel()).reshape(-1, 3, 3)
            time_s, memory, accuracy = table[:, metric, metric].T
            feasible = constraint.feasible(
                time_s, memory, accuracy, slack=_PRUNE_SLACK
            )
            pruned += int(np.count_nonzero(~feasible))
            children = np.arange(shape[level])
            alive = (alive[feasible, None] * shape[level] + children).ravel()
        return alive, pruned

    # ------------------------------------------------------------- main walk
    def explore(
        self,
        *,
        constraint: RuntimeConstraint | None = None,
        prune: bool = True,
        initial_candidates: list[TrainingConfig] | None = None,
    ) -> ExplorationResult:
        """Run the DFS and estimate every surviving candidate.

        ``initial_candidates`` (e.g. the templates of existing systems) are
        always evaluated, guaranteeing GNNavigator never does worse than a
        reproducible baseline — the paper's "initial set" of Fig. 4.
        """
        constraint = constraint or RuntimeConstraint()
        enumeration = self.space.enumeration
        # (T, Γ, Acc) by candidate index; each candidate is predicted once.
        table = np.full((len(enumeration.candidates), 3), np.nan)

        def estimate(indices: np.ndarray) -> np.ndarray:
            """(T, Γ, Acc) rows of ``indices``, predicting the unseen ones."""
            wanted = np.zeros(len(table), dtype=bool)
            wanted[indices] = True
            new = np.flatnonzero(wanted & np.isnan(table[:, 0]))
            if new.size:
                table[new] = self.estimator.predict_columns(
                    enumeration.columns.take(new), self.profile, self.platform
                )
            return table[indices]

        if prune and not constraint.is_unbounded():
            leaves, pruned = self._walk(constraint, estimate)
            # Distinct candidates in the order the walk first reaches them.
            reached = enumeration.leaf_candidate[leaves]
            _, first = np.unique(reached, return_index=True)
            order = reached[np.sort(first)]
        else:
            leaves, pruned = np.arange(self.space.raw_size()), 0
            order = np.arange(len(enumeration.candidates))

        survived = np.zeros(len(table), dtype=bool)
        survived[order] = True
        extras: list[TrainingConfig] = []
        for extra in initial_candidates or []:
            canonical = extra.canonical()
            position = enumeration.index.get(canonical)
            if (position is None or not survived[position]) and canonical not in extras:
                extras.append(canonical)
        survivors = [enumeration.candidates[i] for i in order.tolist()] + extras
        if not survivors:
            raise ExplorationError(
                f"no candidate satisfies the constraints ({constraint.describe()})"
            )
        # One call covers what the bounds did not already estimate; initial
        # candidates outside the space go through ``predict``.
        rows = estimate(order)
        if extras:
            preds = self.estimator.predict(
                extras, [self.profile] * len(extras), self.platform
            )
            rows = np.vstack([rows, PerfRows.of(preds).table])
        # Final feasibility filter on the leaf estimates themselves.
        feasible = constraint.feasible(*rows.T, slack=_FILTER_SLACK)
        keep = np.flatnonzero(np.broadcast_to(feasible, len(survivors)))
        if not keep.size:
            raise ExplorationError(
                f"all candidates violate the constraints ({constraint.describe()})"
            )
        return ExplorationResult(
            candidates=[survivors[i] for i in keep.tolist()],
            predictions=PerfRows(rows[keep]),
            visited_leaves=len(leaves),
            pruned_subtrees=pruned,
            evaluated=len(survivors),
            stats={"feasible": int(keep.size)},
        )


def _strides(shape: list[int]) -> list[int]:
    """Raw leaves under one value of each knob (mixed-radix place values)."""
    strides = [1] * len(shape)
    for level in range(len(shape) - 2, -1, -1):
        strides[level] = strides[level + 1] * shape[level + 1]
    return strides
