"""Ablation — DFS constraint pruning (Sec. 3.3's exploration accelerator).

Runs the same constrained exploration with and without subtree pruning.
Expected shape: pruning removes a significant share of leaf visits while the
surviving feasible candidate set (and hence the chosen guidelines) stays
equivalent — and, since a level's bounds are one batched ``predict`` over
candidates the walk would estimate anyway, the pruned walk costs about what
the unpruned one does (it used to cost four times as much).
"""

from __future__ import annotations

import time

from repro.config import default_space
from repro.experiments import render_table
from repro.experiments.tasks import estimator_task
from repro.explorer import DFSExplorer, GNNavigator, RuntimeConstraint
from repro.estimator import GrayBoxEstimator
from repro.graphs import load_dataset, profile_graph
from repro.hardware import get_platform
from repro.runtime.parallel import ProfilingService, default_store_dir


def test_ablation_constraint_pruning(run_once, emit, quick):
    budget, epochs = (16, 2) if quick else (40, 4)

    def experiment():
        records = GNNavigator(
            estimator_task("reddit2", epochs=epochs),
            profile_budget=budget,
            profile_epochs=epochs,
            profiler=ProfilingService(cache_dir=default_store_dir()),
        ).ground_truth()
        estimator = GrayBoxEstimator().fit(records)
        profile = profile_graph(load_dataset("reddit2"))
        space = default_space()
        space.enumeration  # built once per space; not part of either walk
        # A deliberately tight deployment box.
        times = [r.time_s for r in records]
        constraint = RuntimeConstraint(
            max_time_s=sorted(times)[len(times) // 4],
            min_accuracy=0.5,
        )
        out = {}
        for prune in (False, True):
            walls = []
            for _ in range(5):
                # a fresh explorer each time, so the pruned walk pays for its
                # sensitivity probe in every repetition
                explorer = DFSExplorer(space, estimator, profile, get_platform("rtx4090"))
                t0 = time.perf_counter()
                result = explorer.explore(constraint=constraint, prune=prune)
                walls.append(time.perf_counter() - t0)
            out[prune] = {
                "wall_s": min(walls),
                "visited": result.visited_leaves,
                "pruned": result.pruned_subtrees,
                "feasible": set(result.candidates),
            }
        return out

    out = run_once(experiment)

    rows = [
        [
            "with pruning" if prune else "no pruning",
            f"{stats['visited']}",
            f"{stats['pruned']}",
            f"{len(stats['feasible'])}",
            f"{stats['wall_s'] * 1e3:.1f}",
        ]
        for prune, stats in sorted(out.items())
    ]
    emit()
    emit(
        render_table(
            ["mode", "leaves visited", "subtrees pruned", "feasible", "wall (ms, best of 5)"],
            rows,
            title="Ablation: DFS constraint pruning (Reddit2+SAGE, tight budget)",
        )
    )
    assert out[True]["visited"] < out[False]["visited"], "pruning must cut visits"
    assert out[True]["pruned"] > 0
    # Pruning must not lose feasible candidates that survive the final filter
    # (it may keep a superset pruned only at coarser granularity).
    assert out[True]["feasible"] <= out[False]["feasible"]
    recall = len(out[True]["feasible"]) / max(len(out[False]["feasible"]), 1)
    emit(f"feasible-set recall under pruning: {recall * 100:.1f}%")
    if not quick:  # a weak quick-mode estimator blurs the recall band
        assert recall > 0.7
    # Pruning must not cost more than it saves.  Its bounds are estimates the
    # unpruned walk makes anyway, so it predicts fewer rows (~3.5 us each), but
    # in one batched call per prune-zone level plus the probe (~1.5 ms each):
    # on this 4.7k-candidate space the two are the same few milliseconds, and
    # the walls (both ~25 ms) differ by less than a quarter either way.  Quick
    # mode runs on shared CI hosts, where two such timings differ by more.
    slowdown = out[True]["wall_s"] / out[False]["wall_s"]
    emit(f"pruned walk takes {slowdown:.2f}x the unpruned walk's time")
    assert slowdown <= (1.5 if quick else 1.25), "pruning costs more than it saves"
