"""Design-space exploration: objectives, constraints, Pareto, DFS, navigator."""

from repro.explorer.constraints import RuntimeConstraint
from repro.explorer.decision import DecisionMaker, Guideline
from repro.explorer.dfs import DFSExplorer, ExplorationResult
from repro.explorer.navigator import GNNavigator, NavigatorReport
from repro.explorer.objectives import (
    PRIORITY_PRESETS,
    ExploreTarget,
    get_target,
    normalize_objectives,
)
from repro.explorer.pareto import (
    dominates,
    hypervolume_2d,
    pareto_front_indices,
    pareto_mask,
)

__all__ = [
    "RuntimeConstraint",
    "DecisionMaker",
    "Guideline",
    "DFSExplorer",
    "ExplorationResult",
    "GNNavigator",
    "NavigatorReport",
    "ExploreTarget",
    "PRIORITY_PRESETS",
    "get_target",
    "normalize_objectives",
    "dominates",
    "pareto_mask",
    "pareto_front_indices",
    "hypervolume_2d",
]
