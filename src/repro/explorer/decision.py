"""Decision maker: Pareto filtering + priority-weighted guideline choice.

Fig. 4, box 4: candidates surviving exploration are reduced to the Pareto
front, normalised, and scalarised with the user's priority weights; the best
scorer becomes the training guideline for that priority.  All of it runs on
the exploration's ``(T, Γ, Acc)`` table; a :class:`PredictedPerf` is built
only for a row the decision returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.settings import TrainingConfig
from repro.errors import ExplorationError
from repro.estimator.graybox import PredictedPerf
from repro.explorer.dfs import ExplorationResult
from repro.explorer.objectives import ExploreTarget, normalize_objectives
from repro.explorer.pareto import pareto_front_indices

__all__ = ["Guideline", "DecisionMaker"]


@dataclass(frozen=True)
class Guideline:
    """A recommended training configuration with its predicted performance."""

    priority: str
    config: TrainingConfig
    predicted: PredictedPerf
    score: float
    front_size: int

    def describe(self) -> str:
        return (
            f"[{self.priority}] {self.config.describe()} | "
            f"T~{self.predicted.time_s * 1e3:.2f}ms "
            f"Γ~{self.predicted.memory_bytes / 1024**2:.1f}MiB "
            f"Acc~{self.predicted.accuracy * 100:.1f}%"
        )


class DecisionMaker:
    """Chooses guidelines from an :class:`ExplorationResult`."""

    def __init__(self, result: ExplorationResult) -> None:
        if not result.candidates:
            raise ExplorationError("decision maker received no candidates")
        self.result = result
        self._objectives = result.objectives()
        # A NaN or infinite estimate has no place on a normalised scale (one
        # would turn every score NaN), so the front is taken over the
        # finite rows.
        finite = np.flatnonzero(np.isfinite(self._objectives).all(axis=1))
        if not finite.size:
            raise ExplorationError("no candidate has a finite predicted performance")
        self._front = finite[pareto_front_indices(self._objectives[finite])]

    @property
    def front_indices(self) -> np.ndarray:
        """Indices of Pareto-optimal candidates (into result.candidates)."""
        return self._front

    def front(self) -> list[tuple[TrainingConfig, PredictedPerf]]:
        """Pareto-optimal (config, prediction) pairs."""
        return [
            (self.result.candidates[i], self.result.predictions[i])
            for i in self._front
        ]

    def choose(
        self, target: ExploreTarget, *, accuracy_drop: float | None = None
    ) -> Guideline:
        """Pick the front candidate minimising the target's scalarisation.

        ``accuracy_drop`` bounds how far below the front's best predicted
        accuracy the winner may fall — the paper's "comparable accuracy"
        behaviour (Table 1: Bal matches baselines, Ex-TM concedes ~3%).
        Falls back to the full front if the floor empties it.
        """
        front = self._front
        if accuracy_drop is not None:
            accs = -self._objectives[front, 2]
            floor = accs.max() - accuracy_drop
            kept = front[accs >= floor]
            if kept.size:
                front = kept
        front_objs = self._objectives[front]
        scores = target.score(normalize_objectives(front_objs))
        winner = front[int(np.argmin(scores))]
        return Guideline(
            priority=target.name,
            config=self.result.candidates[winner],
            predicted=self.result.predictions[winner],
            score=float(scores.min()),
            front_size=int(front.size),
        )

    #: how much predicted accuracy each priority may concede off the front's
    #: best (paper Table 1: Bal/Ex-MA stay comparable, Ex-TM drops ~3%).
    DEFAULT_ACCURACY_DROPS = {
        "balance": 0.03,
        "ex_tm": 0.08,
        "ex_ma": 0.02,
        "ex_ta": 0.04,
    }

    def choose_all(
        self,
        targets: list[ExploreTarget],
        *,
        accuracy_drops: dict[str, float] | None = None,
    ) -> dict[str, Guideline]:
        """Guidelines for several priorities at once."""
        drops = dict(self.DEFAULT_ACCURACY_DROPS)
        if accuracy_drops:
            drops.update(accuracy_drops)
        return {
            t.name: self.choose(t, accuracy_drop=drops.get(t.name))
            for t in targets
        }
