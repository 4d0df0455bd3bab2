"""Profiling service — serial vs parallel fan-out, cold vs warm cache.

Ground-truth profiling is the dominant wall-clock cost of a navigation run
(Sec. 4.1 trains the estimator on measurements "covering the whole design
space").  This bench profiles a 32-candidate workload three ways:

(a) serial baseline (a service without local workers),
(b) 4 local workers — spawned processes that lease training classes from
    the service's queue, longest first; their one-time start is inside the
    timing — expected >= 2x faster on >= 4 cores, with bit-identical
    records,
(c) cold vs warm persistent cache — the warm rerun must finish with zero
    training runs.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.config.settings import TaskSpec
from repro.config.space import default_space
from repro.graphs.generators import powerlaw_community_graph
from repro.runtime import ProfilingService

NUM_CANDIDATES = 32
NUM_WORKERS = 4


def _workload(quick: bool):
    graph = powerlaw_community_graph(
        300 if quick else 600,
        num_classes=5,
        feature_dim=16,
        min_degree=3,
        max_degree=50,
        homophily=0.8,
        feature_noise=0.8,
        seed=42,
        name="bench-profiler",
    )
    task = TaskSpec(
        dataset="bench-profiler", arch="sage", epochs=1 if quick else 2, lr=0.02
    )
    rng = np.random.default_rng(0)
    configs = default_space().sample(
        8 if quick else NUM_CANDIDATES, rng=rng
    )
    return task, configs, graph


def test_parallel_fanout_matches_serial(run_once, emit, quick):
    task, configs, graph = _workload(quick)
    num_workers = 2 if quick else NUM_WORKERS

    t0 = time.perf_counter()
    serial = run_once(
        lambda: ProfilingService().profile(task, configs, graph=graph)
    )
    t_serial = time.perf_counter() - t0

    with ProfilingService(max_workers=num_workers) as service:
        t0 = time.perf_counter()
        parallel = service.profile(task, configs, graph=graph)
        t_parallel = time.perf_counter() - t0

    speedup = t_serial / t_parallel
    emit()
    emit(
        f"profiling {len(configs)} candidates: serial {t_serial:.2f}s, "
        f"{num_workers} workers {t_parallel:.2f}s -> {speedup:.2f}x "
        f"({os.cpu_count()} cores visible)"
    )

    assert parallel == serial, "parallel records must be bit-identical to serial"
    if quick:
        pass  # worker start-up dominates an 8-candidate batch; identity is the check
    elif (os.cpu_count() or 1) >= num_workers:
        assert speedup >= 2.0, f"expected >=2x speedup, got {speedup:.2f}x"
    else:
        emit(
            f"note: <{num_workers} cores available; speedup assertion skipped "
            "(fan-out cannot beat serial without parallel hardware)"
        )


def test_warm_cache_runs_nothing(run_once, emit, tmp_path, quick):
    task, configs, graph = _workload(quick)

    cold = ProfilingService(cache_dir=tmp_path)
    t0 = time.perf_counter()
    first = run_once(lambda: cold.profile(task, configs, graph=graph))
    t_cold = time.perf_counter() - t0

    warm = ProfilingService(cache_dir=tmp_path)
    t0 = time.perf_counter()
    second = warm.profile(task, configs, graph=graph)
    t_warm = time.perf_counter() - t0

    emit()
    emit(
        f"persistent cache: cold {t_cold:.2f}s ({cold.stats.executed} runs), "
        f"warm {t_warm:.3f}s ({warm.stats.executed} runs) -> "
        f"{t_cold / max(t_warm, 1e-9):.0f}x"
    )

    assert warm.stats.executed == 0, "warm rerun must execute zero training runs"
    assert warm.stats.cache_hits + warm.stats.deduplicated == len(configs)
    assert second == first
