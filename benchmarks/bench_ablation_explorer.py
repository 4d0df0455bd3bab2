"""Ablation — exploration strategy: exhaustive DFS vs local search.

The paper's explorer enumerates the (pruned) space with the cheap estimator.
This ablation measures what a budgeted local search would give up: Pareto
front quality (2-D hypervolume on the time/memory plane) per estimator call.
Expected shape: DFS attains the reference hypervolume; local search recovers
most of it with a fraction of the estimator calls.
"""

from __future__ import annotations

import numpy as np

from repro.config import default_space
from repro.estimator import GrayBoxEstimator
from repro.experiments import profiling_records, render_table
from repro.experiments.tasks import estimator_task
from repro.explorer import (
    DFSExplorer,
    LocalSearchExplorer,
    PRIORITY_PRESETS,
    pareto_mask,
)
from repro.explorer.pareto import hypervolume_2d
from repro.graphs import load_dataset, profile_graph
from repro.hardware import get_platform


def _front_hypervolume(result) -> float:
    objs = result.objectives()[:, :2]  # time, memory plane
    ref = objs.max(axis=0) * 1.1
    return hypervolume_2d(objs[pareto_mask(objs)], ref)


def test_ablation_explorer_strategies(run_once, emit, quick):
    budget, epochs = (16, 2) if quick else (40, 4)

    def experiment():
        records = profiling_records(
            estimator_task("reddit2", epochs=epochs), budget=budget
        )
        estimator = GrayBoxEstimator().fit(records)
        profile = profile_graph(load_dataset("reddit2"))
        platform = get_platform("rtx4090")
        space = default_space()

        dfs = DFSExplorer(space, estimator, profile, platform)
        dfs_result = dfs.explore()

        local = LocalSearchExplorer(
            space,
            estimator,
            profile,
            platform,
            restarts=3 if quick else 6,
            max_steps=10 if quick else 20,
        )
        local_result = local.explore(list(PRIORITY_PRESETS.values()))

        # Hypervolumes on a shared reference derived from the DFS sweep.
        objs = dfs_result.objectives()[:, :2]
        ref = objs.max(axis=0) * 1.1
        hv_dfs = hypervolume_2d(objs[pareto_mask(objs)], ref)
        lobs = local_result.objectives()[:, :2]
        hv_local = hypervolume_2d(lobs[pareto_mask(lobs)], ref)
        return {
            "dfs": (dfs_result.evaluated, hv_dfs),
            "local": (local_result.stats["estimator_calls"], hv_local),
            "steps": local_result.stats["steps_per_restart"],
        }

    out = run_once(experiment)
    steps = out.pop("steps")

    rows = [
        [name, str(calls), f"{hv:.3e}"]
        for name, (calls, hv) in out.items()
    ]
    emit()
    emit(
        render_table(
            ["strategy", "estimator calls", "hypervolume (T x Γ)"],
            rows,
            title="Ablation: DFS vs budgeted local search (Reddit2+SAGE)",
        )
    )
    calls_dfs, hv_dfs = out["dfs"]
    calls_local, hv_local = out["local"]
    recovery = hv_local / hv_dfs if hv_dfs > 0 else 0.0
    emit(
        f"local search recovers {recovery * 100:.1f}% of DFS hypervolume with "
        f"{calls_local / max(calls_dfs, 1) * 100:.0f}% of the estimator calls"
    )
    emit(
        f"local search steps per restart: mean {np.mean(steps):.1f}, "
        f"max {max(steps)} over {len(steps)} restarts {steps}"
    )
    assert max(steps) >= 2, "the climber never left its starting points"
    assert calls_local < calls_dfs, "local search must be cheaper"
    if not quick:  # a half-budget estimator makes recovery unreliable
        assert recovery > 0.6, "local search must recover most of the front"
