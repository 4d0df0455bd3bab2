"""Performance reports: ``Perf(T, Γ, Acc)`` and per-batch profiling records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.memory import MemoryBreakdown

__all__ = ["BatchRecord", "EpochStats", "PerfReport"]


@dataclass(frozen=True)
class BatchRecord:
    """Measured quantities of one mini-batch iteration.

    These are the intermediate variables of Eqs. 5-8; the profiler feeds them
    to the estimator as ground truth.
    """

    num_targets: int
    num_nodes: int  # |V_i|
    num_edges: int  # |E_i|
    num_missed: int  # |V_i| * (1 - hit)
    num_admitted: int
    num_evicted: int
    t_sample: float
    t_transfer: float
    t_replace: float
    t_compute: float
    loss: float

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.num_missed / self.num_nodes if self.num_nodes else 0.0

    @property
    def time(self) -> float:
        """Eq. 4 for this batch: overlapped host/device pipelines."""
        return max(self.t_sample + self.t_transfer, self.t_replace + self.t_compute)


@dataclass
class EpochStats:
    """Aggregated statistics of one training epoch."""

    epoch: int
    time_s: float
    t_sample: float
    t_transfer: float
    t_replace: float
    t_compute: float
    mean_batch_nodes: float
    mean_batch_edges: float
    hit_rate: float
    loss: float
    val_accuracy: float
    num_batches: int


@dataclass
class PerfReport:
    """End-to-end training performance — what GNNavigator optimises.

    ``time_s`` is the mean epoch time ``T``; ``memory`` the peak device
    footprint ``Γ``; ``accuracy`` the final test accuracy ``Acc``.
    """

    time_s: float
    memory: MemoryBreakdown
    accuracy: float
    epochs: list[EpochStats] = field(default_factory=list)
    #: thousands of per-batch rows back the epoch statistics; they stay on
    #: the side that measured them (``repro.wire`` skips the field).
    batches: list[BatchRecord] = field(
        default_factory=list, metadata={"wire": False}
    )
    config_summary: str = ""
    task_summary: str = ""

    @property
    def memory_gib(self) -> float:
        return self.memory.total_gib

    @property
    def total_time_s(self) -> float:
        return float(sum(e.time_s for e in self.epochs))

    @property
    def mean_hit_rate(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e.hit_rate for e in self.epochs]))

    @property
    def mean_batch_nodes(self) -> float:
        if not self.epochs:
            return 0.0
        return float(np.mean([e.mean_batch_nodes for e in self.epochs]))

    def objective_vector(self) -> np.ndarray:
        """(T, Γ, -Acc) — all minimised; used by Pareto utilities."""
        return np.array(
            [self.time_s, self.memory.total, -self.accuracy], dtype=np.float64
        )

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"T={self.time_s * 1e3:.2f} ms/epoch  "
            f"Γ={self.memory.total / 1024**2:.1f} MiB  "
            f"Acc={self.accuracy * 100:.2f}%  "
            f"hit={self.mean_hit_rate * 100:.0f}%"
        )

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated seconds of training until validation accuracy reached
        ``target`` — the systems community's time-to-accuracy metric.

        Returns ``None`` when the run never reached the target.  Epoch
        granularity: the full epoch in which the target was first met is
        charged.
        """
        elapsed = 0.0
        for stats in self.epochs:
            elapsed += stats.time_s
            if stats.val_accuracy >= target:
                return elapsed
        return None
