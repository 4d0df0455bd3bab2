"""Design-space exploration on the estimator (Sec. 3.3).

The explorer consults the performance estimator instead of executing
candidates.  The paper walks the design space depth-first and prunes
subtrees whose optimistic completion violates a runtime constraint, because
it scores candidates one at a time.  Here every candidate of the space's
:class:`~repro.config.space.Enumeration`, followed by the initial candidates
outside it, is scored by one ``predict`` call on their columns, which costs
less than the walk's bounds did, so a runtime constraint is a filter over
that table.  The result keeps the estimates as one ``(T, Γ, Acc)`` table
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

#: relative slack on the per-candidate feasibility filter.
_FILTER_SLACK = 0.25


@dataclass
class ExplorationResult:
    """All surviving candidates with their estimated performance."""

    candidates: list[TrainingConfig]
    #: one estimate per candidate, held as a :class:`PerfRows` over
    #: :attr:`table` (a list passed in is read into one); the wire reads
    #: and writes it as the list of ``PredictedPerf``.
    predictions: list[PredictedPerf]
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
    """Estimates every candidate of a :class:`DesignSpace` at once."""

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

    def explore(
        self,
        *,
        constraint: RuntimeConstraint | None = None,
        initial_candidates: list[TrainingConfig] | None = None,
    ) -> ExplorationResult:
        """Estimate every candidate and keep those the constraint allows.

        ``initial_candidates`` (e.g. the templates of existing systems) are
        always evaluated, guaranteeing GNNavigator never does worse than a
        reproducible baseline — the paper's "initial set" of Fig. 4.
        """
        constraint = constraint or RuntimeConstraint()
        enumeration = self.space.enumeration
        extras = (c.canonical() for c in initial_candidates or ())
        # The joined columns, and their feature tables, are built once per
        # space and extras, and kept with the space's columns.
        columns = enumeration.columns.extended(
            tuple(dict.fromkeys(c for c in extras if c not in enumeration.index))
        )
        candidates = columns.configs
        rows = self.estimator.predict(columns, self.profile, self.platform)
        # An unbounded constraint answers one ``True`` for every row.
        feasible = constraint.feasible(*rows.T, slack=_FILTER_SLACK)
        keep = np.flatnonzero(np.broadcast_to(feasible, len(candidates)))
        if not keep.size:
            raise ExplorationError(
                f"all candidates violate the constraints ({constraint.describe()})"
            )
        return ExplorationResult(
            candidates=[candidates[i] for i in keep.tolist()],
            predictions=PerfRows(rows[keep]),
            evaluated=len(candidates),
            stats={"feasible": int(keep.size)},
        )
