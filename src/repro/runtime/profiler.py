"""Ground-truth profiler: runs configurations and records what happened.

Fills the role of the PyTorch profiler in the paper's Sec. 4.1: the
performance estimator "is trained on the ground-truth performance covering
the whole design space".  :func:`profile_class` executes one training class
of candidates on the runtime backend and returns one
:class:`GroundTruthRecord` per candidate — the training set of the gray-box
model and the raw data behind Fig. 6.  Batches of candidates go through
:class:`~repro.runtime.parallel.ProfilingService`, which dedups, shares,
fans out and persists them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config.settings import TaskSpec, TrainingConfig
from repro.graphs.csr import CSRGraph
from repro.graphs.profiling import GraphProfile
from repro.hardware.specs import Platform, get_platform
from repro.runtime.backend import PreparedGraph, RuntimeBackend
from repro.runtime.report import PerfReport

__all__ = ["GroundTruthRecord", "profile_class", "profile_one"]


@dataclass(frozen=True)
class GroundTruthRecord:
    """Measured performance of one (task, config) pair.

    Holds both the final ``Perf(T, Γ, Acc)`` targets and the intermediate
    variables (|V_i|, hit rate, phase times) the gray-box estimator models
    explicitly.
    """

    config: TrainingConfig
    task: TaskSpec
    graph_profile: GraphProfile
    time_s: float
    memory_bytes: float
    accuracy: float
    mean_batch_nodes: float
    mean_batch_edges: float
    hit_rate: float
    t_sample: float
    t_transfer: float
    t_replace: float
    t_compute: float
    num_batches: int

    def features(self, platform: Platform | None = None) -> np.ndarray:
        """Candidate + pre-determined settings encoding (Fig. 4 inputs)."""
        platform = platform or get_platform(self.task.platform)
        return np.concatenate(
            [
                self.config.as_features(),
                self.graph_profile.as_features(),
                np.asarray(platform.as_features(), dtype=np.float64),
            ]
        )


def _record_from_report(
    config: TrainingConfig,
    task: TaskSpec,
    profile: GraphProfile,
    report: PerfReport,
) -> GroundTruthRecord:
    last = report.epochs[-1]
    return GroundTruthRecord(
        config=config,
        task=task,
        graph_profile=profile,
        time_s=report.time_s,
        memory_bytes=float(report.memory.total),
        accuracy=report.accuracy,
        mean_batch_nodes=report.mean_batch_nodes,
        mean_batch_edges=float(np.mean([e.mean_batch_edges for e in report.epochs])),
        hit_rate=report.mean_hit_rate,
        t_sample=last.t_sample / max(last.num_batches, 1),
        t_transfer=last.t_transfer / max(last.num_batches, 1),
        t_replace=last.t_replace / max(last.num_batches, 1),
        t_compute=last.t_compute / max(last.num_batches, 1),
        num_batches=last.num_batches,
    )


def profile_class(
    task: TaskSpec,
    configs: list[TrainingConfig],
    *,
    graph: CSRGraph | None = None,
    prepared: PreparedGraph | None = None,
) -> list[tuple[GroundTruthRecord, PerfReport]]:
    """Execute one training class — candidates that share a
    :func:`~repro.runtime.backend.training_key` — as one training run, and
    return each member's record plus full report, in input order."""
    backend = RuntimeBackend(task, *configs, graph=graph, prepared=prepared)
    reports = backend.train_members()
    profile = backend.prepared.profile
    return [
        (_record_from_report(member.config, task, profile, report), report)
        for member, report in zip(backend.members, reports, strict=True)
    ]


def profile_one(
    task: TaskSpec,
    config: TrainingConfig,
    *,
    graph: CSRGraph | None = None,
) -> tuple[GroundTruthRecord, PerfReport]:
    """Execute one candidate — the class of one — and return its record
    plus the full report."""
    return profile_class(task, [config], graph=graph)[0]

