"""Local-search exploration: an alternative to exhaustive DFS.

The paper formulates automation as a DSE problem "inspired by
BOOM-Explorer" and solves it with estimator-guided DFS.  For larger spaces
exhaustive enumeration stops being free even with a cheap estimator, so this
module adds the classic alternative: multi-restart hill climbing over the
design space's one-knob neighbourhood graph, scalarised per explore target.
The ablation bench compares its Pareto front quality (hypervolume) and
estimator-call count against the DFS explorer.
"""

from __future__ import annotations

import numpy as np

from repro.config.settings import TrainingConfig
from repro.config.space import DesignSpace
from repro.errors import ExplorationError
from repro.estimator.graybox import GrayBoxEstimator, PredictedPerf
from repro.explorer.constraints import RuntimeConstraint
from repro.explorer.dfs import ExplorationResult
from repro.explorer.objectives import ExploreTarget, normalize_objectives
from repro.graphs.profiling import GraphProfile
from repro.hardware.specs import Platform

__all__ = ["LocalSearchExplorer"]


class LocalSearchExplorer:
    """Multi-restart hill climbing guided by the gray-box estimator."""

    def __init__(
        self,
        space: DesignSpace,
        estimator: GrayBoxEstimator,
        profile: GraphProfile,
        platform: Platform,
        *,
        restarts: int = 8,
        max_steps: int = 24,
        seed: int = 0,
    ) -> None:
        if restarts < 1 or max_steps < 1:
            raise ExplorationError("restarts and max_steps must be positive")
        self.space = space
        self.estimator = estimator
        self.profile = profile
        self.platform = platform
        self.restarts = restarts
        self.max_steps = max_steps
        self._rng = np.random.default_rng(seed)
        self.estimator_calls = 0

    # ------------------------------------------------------------------ core
    def _predict(self, configs: list[TrainingConfig]) -> list[PredictedPerf]:
        self.estimator_calls += len(configs)
        return self.estimator.predict(
            configs, [self.profile] * len(configs), self.platform
        )

    def _scores(
        self,
        preds: list[PredictedPerf],
        target: ExploreTarget,
        constraint: RuntimeConstraint,
    ) -> np.ndarray:
        objs = np.stack([p.objective_vector() for p in preds])
        scores = target.score(normalize_objectives(objs))
        feasible = np.array(
            [constraint.satisfied_by(p, slack=0.25) for p in preds]
        )
        return np.where(feasible, scores, np.inf)

    def explore(
        self,
        targets: list[ExploreTarget],
        *,
        constraint: RuntimeConstraint | None = None,
    ) -> ExplorationResult:
        """Hill-climb per target from random starts; pool every visited point.

        The pooled visits form the candidate set; the caller applies Pareto
        filtering / decision making exactly as with the DFS explorer.
        """
        constraint = constraint or RuntimeConstraint()
        visited: dict[TrainingConfig, PredictedPerf] = {}
        steps_per_restart: list[int] = []

        for target in targets:
            for _ in range(self.restarts):
                current = self.space.sample(1, rng=self._rng)[0]
                if current not in visited:
                    visited[current] = self._predict([current])[0]
                steps = 0
                for _ in range(self.max_steps):
                    neighbors = self.space.neighbors(current)
                    if not neighbors:
                        break
                    fresh = [n for n in neighbors if n not in visited]
                    if fresh:
                        for cfg, pred in zip(fresh, self._predict(fresh), strict=True):
                            visited[cfg] = pred
                    # The current point and its neighbourhood share one
                    # normalisation, so their scores are comparable.
                    scores = self._scores(
                        [visited[current]] + [visited[n] for n in neighbors],
                        target,
                        constraint,
                    )
                    best = int(np.argmin(scores[1:]))
                    if scores[1 + best] >= scores[0]:
                        break  # local optimum for this target
                    current = neighbors[best]
                    steps += 1
                steps_per_restart.append(steps)

        feasible = {
            cfg: pred
            for cfg, pred in visited.items()
            if constraint.satisfied_by(pred, slack=0.25)
        }
        if not feasible:
            raise ExplorationError(
                f"local search found no feasible candidate ({constraint.describe()})"
            )
        configs = list(feasible)
        return ExplorationResult(
            candidates=configs,
            predictions=[feasible[c] for c in configs],
            visited_leaves=len(visited),
            evaluated=len(visited),
            stats={
                "estimator_calls": self.estimator_calls,
                "steps_per_restart": steps_per_restart,
            },
        )
