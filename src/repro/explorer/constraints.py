"""Runtime constraints: hard application limits the explorer must honour.

Constraints come from the deployment scenario (device memory budget, epoch
deadline, minimum acceptable accuracy — Fig. 4 "Runtime Constraints").  The
explorer keeps the candidates whose *estimated* performance satisfies them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExplorationError
from repro.estimator.graybox import PredictedPerf

__all__ = ["RuntimeConstraint"]


@dataclass(frozen=True)
class RuntimeConstraint:
    """Feasibility box over ``Perf(T, Γ, Acc)``; ``None`` disables a bound."""

    max_time_s: float | None = None
    max_memory_bytes: float | None = None
    min_accuracy: float | None = None

    def __post_init__(self) -> None:
        if self.max_time_s is not None and self.max_time_s <= 0:
            raise ExplorationError("max_time_s must be positive")
        if self.max_memory_bytes is not None and self.max_memory_bytes <= 0:
            raise ExplorationError("max_memory_bytes must be positive")
        if self.min_accuracy is not None and not 0.0 <= self.min_accuracy <= 1.0:
            raise ExplorationError("min_accuracy must lie in [0, 1]")

    def is_unbounded(self) -> bool:
        return (
            self.max_time_s is None
            and self.max_memory_bytes is None
            and self.min_accuracy is None
        )

    def satisfied_by(self, perf: PredictedPerf, *, slack: float = 0.0) -> bool:
        """Whether a (predicted or measured) performance is feasible.

        ``slack`` relaxes each bound by a relative margin — the explorer uses
        a small slack when filtering on *estimates* so estimator error does
        not discard feasible candidates.
        """
        return bool(
            self.feasible(perf.time_s, perf.memory_bytes, perf.accuracy, slack=slack)
        )

    def feasible(self, time_s, memory_bytes, accuracy, *, slack: float = 0.0):
        """:meth:`satisfied_by` on bare metrics: numbers, or arrays of them."""
        ok = True
        if self.max_time_s is not None:
            ok = ok & np.logical_not(time_s > self.max_time_s * (1.0 + slack))
        if self.max_memory_bytes is not None:
            ok = ok & np.logical_not(
                memory_bytes > self.max_memory_bytes * (1.0 + slack)
            )
        if self.min_accuracy is not None:
            ok = ok & np.logical_not(accuracy < self.min_accuracy * (1.0 - slack))
        return ok

    def describe(self) -> str:
        parts: list[str] = []
        if self.max_time_s is not None:
            parts.append(f"T<={self.max_time_s * 1e3:.1f}ms")
        if self.max_memory_bytes is not None:
            parts.append(f"Mem<={self.max_memory_bytes / 1024**2:.0f}MiB")
        if self.min_accuracy is not None:
            parts.append(f"Acc>={self.min_accuracy * 100:.1f}%")
        return " ".join(parts) if parts else "unconstrained"
