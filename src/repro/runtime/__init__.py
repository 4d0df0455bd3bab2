"""Reconfigurable runtime backend executing Algorithm 1 on the simulated platform."""

from repro.runtime.backend import RuntimeBackend, make_sampler
from repro.runtime.parallel import (
    CancellationToken,
    ProfilingService,
    ProfilingStats,
    ResultStore,
)
from repro.runtime.profiler import GroundTruthRecord, profile_one
from repro.runtime.report import BatchRecord, EpochStats, PerfReport

__all__ = [
    "RuntimeBackend",
    "make_sampler",
    "CancellationToken",
    "GroundTruthRecord",
    "ProfilingService",
    "ProfilingStats",
    "ResultStore",
    "profile_one",
    "BatchRecord",
    "EpochStats",
    "PerfReport",
]
