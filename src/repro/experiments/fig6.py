"""Figure 6 — adaptability validation on Reddit2+SAGE.

The paper exhausts the design space by actually executing every candidate,
scatters the measured performance in the (time, memory) and (memory,
accuracy) planes, draws the Pareto front, and shows that the guidelines
GNNavigator returns (Bal in blue, Ex in red) sit on the measured front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config.settings import TaskSpec, TrainingConfig
from repro.config.space import reduced_space
from repro.experiments.tasks import NAVIGATOR_MODES
from repro.explorer.navigator import GNNavigator
from repro.explorer.pareto import pareto_front_indices
from repro.runtime.parallel import ProfilingService, default_store_dir
from repro.runtime.profiler import GroundTruthRecord

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    """Measured design-space exhaustion plus guideline positions."""

    records: list[GroundTruthRecord]
    guideline_configs: dict[str, TrainingConfig]
    guideline_indices: dict[str, int] = field(default_factory=dict)

    def objectives(self) -> np.ndarray:
        """(T, Γ, 1-Acc) rows of every executed candidate.

        Error rate instead of ``-Acc`` keeps every objective positive so the
        multiplicative dominance slack in :meth:`guideline_on_front` behaves
        uniformly; dominance ordering is identical.
        """
        return np.stack(
            [
                np.array([r.time_s, r.memory_bytes, 1.0 - r.accuracy])
                for r in self.records
            ]
        )

    def plane(self, axes: tuple[int, int]) -> np.ndarray:
        """Project onto a 2-D plane, e.g. (0, 1) = time vs memory."""
        return self.objectives()[:, list(axes)]

    def front_indices(self, axes: tuple[int, int]) -> np.ndarray:
        """Pareto front of the projected plane (both minimised)."""
        return pareto_front_indices(self.plane(axes))

    def guideline_on_front(self, mode: str, axes: tuple[int, int]) -> bool:
        """Whether a guideline's measured point is within the front region.

        A point counts as on-front when no executed candidate dominates it by
        more than 5% in both plane objectives (measurement noise tolerance).
        Note a 3-D Pareto point may legitimately fail this in one 2-D
        projection — use :meth:`guideline_nondominated` for the full check.
        """
        idx = self.guideline_indices[mode]
        plane = self.plane(axes)
        mine = plane[idx]
        slack = 1.0 + 0.05
        dominated = np.all(plane * slack < mine, axis=1)
        return not bool(np.any(dominated))

    def guideline_nondominated(self, mode: str) -> bool:
        """Full 3-D Pareto check: nothing beats the guideline by >5% on
        time, memory and error rate simultaneously."""
        idx = self.guideline_indices[mode]
        objs = self.objectives()
        mine = objs[idx]
        slack = 1.0 + 0.05
        dominated = np.all(objs * slack < mine, axis=1)
        return not bool(np.any(dominated))


def run_fig6(
    *,
    dataset: str = "reddit2",
    arch: str = "sage",
    epochs: int = 4,
    workers: int | None = None,
) -> Fig6Result:
    """Exhaust the reduced space by execution; locate navigator guidelines.

    Following the paper's Sec. 4.1 protocol, the estimator is fitted on "the
    ground-truth performance covering the whole design space" — i.e. the
    same exhaustive records the figure scatters — and the explorer then
    selects guidelines from its *predictions*.  The figure validates that
    those predicted-optimal picks land on the *measured* Pareto front.
    """
    space = reduced_space()
    task = TaskSpec(dataset=dataset, arch=arch, epochs=epochs)
    with ProfilingService(max_workers=workers, cache_dir=default_store_dir()) as service:
        records = service.profile(task, space.enumerate())
        by_config = {r.config: i for i, r in enumerate(records)}

        nav = GNNavigator(task, space=space)
        nav.fit_estimator(records)
        report = nav.explore(priorities=list(NAVIGATOR_MODES))

        result = Fig6Result(records=records, guideline_configs={})
        for mode, guideline in report.guidelines.items():
            config = guideline.config.canonical()
            result.guideline_configs[mode] = config
            if config not in by_config:
                # Guideline came from the initial template set outside the
                # reduced space: execute it once and append.
                (extra,) = service.profile(task, [config])
                by_config[config] = len(records)
                records.append(extra)
            result.guideline_indices[mode] = by_config[config]
    return result
