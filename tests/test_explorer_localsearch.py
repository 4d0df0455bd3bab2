"""Local-search explorer tests."""

from __future__ import annotations

import pytest

from repro.errors import ExplorationError
from repro.explorer import LocalSearchExplorer, PRIORITY_PRESETS, RuntimeConstraint
from repro.explorer.dfs import DFSExplorer
from repro.graphs.profiling import profile_graph
from repro.hardware import get_platform
from tests.test_explorer import fitted_estimator, tiny_space  # fixtures


class TestLocalSearch:
    def test_finds_feasible_candidates(self, tiny_space, fitted_estimator, small_graph):
        explorer = LocalSearchExplorer(
            tiny_space,
            fitted_estimator,
            profile_graph(small_graph),
            get_platform("rtx4090"),
            restarts=3,
            max_steps=8,
        )
        result = explorer.explore([PRIORITY_PRESETS["balance"]])
        assert result.candidates
        assert result.stats["estimator_calls"] > 0

    def test_cheaper_than_dfs_on_larger_space(
        self, fitted_estimator, small_graph
    ):
        from repro.config import default_space

        profile = profile_graph(small_graph)
        platform = get_platform("rtx4090")
        space = default_space()
        dfs = DFSExplorer(space, fitted_estimator, profile, platform)
        dfs_result = dfs.explore()
        local = LocalSearchExplorer(
            space, fitted_estimator, profile, platform, restarts=2, max_steps=6
        )
        local_result = local.explore([PRIORITY_PRESETS["ex_tm"]])
        assert local_result.stats["estimator_calls"] < dfs_result.evaluated

    def test_restarts_climb(self, fitted_estimator, small_graph):
        """Regression: the current point was scored alone (always 0 after
        min-max normalisation) and its neighbours among themselves, so every
        restart stopped before its first move."""
        from repro.config import default_space

        restarts, max_steps = 8, 24
        explorer = LocalSearchExplorer(
            default_space(),
            fitted_estimator,
            profile_graph(small_graph),
            get_platform("rtx4090"),
            restarts=restarts,
            max_steps=max_steps,
        )
        scored = []
        score = explorer._scores

        def recording(*args):
            scored.append(score(*args))
            return scored[-1]

        explorer._scores = recording
        result = explorer.explore([PRIORITY_PRESETS["balance"]])
        steps = result.stats["steps_per_restart"]
        assert len(steps) == restarts
        assert max(steps) >= 2
        # Index 0 is the current point, scored with its neighbourhood: a move
        # happens exactly when some neighbour beats it, so no move worsens the
        # jointly-normalised score and every restart ends on a local optimum.
        moves = [s for s in scored if s[1:].min() < s[0]]
        assert len(moves) == sum(steps)
        assert len(scored) - len(moves) == sum(n < max_steps for n in steps)

    def test_best_candidate_competitive_with_dfs(
        self, tiny_space, fitted_estimator, small_graph
    ):
        """On the tiny space local search should find the DFS optimum."""
        from repro.explorer import DecisionMaker, get_target

        profile = profile_graph(small_graph)
        platform = get_platform("rtx4090")
        target = get_target("ex_tm")
        dfs_best = DecisionMaker(
            DFSExplorer(tiny_space, fitted_estimator, profile, platform).explore()
        ).choose(target)
        local = LocalSearchExplorer(
            tiny_space, fitted_estimator, profile, platform,
            restarts=6, max_steps=12,
        )
        local_best = DecisionMaker(
            local.explore([target])
        ).choose(target)
        assert local_best.predicted.time_s <= dfs_best.predicted.time_s * 1.5

    def test_infeasible_constraint_raises(
        self, tiny_space, fitted_estimator, small_graph
    ):
        explorer = LocalSearchExplorer(
            tiny_space,
            fitted_estimator,
            profile_graph(small_graph),
            get_platform("rtx4090"),
            restarts=2,
            max_steps=4,
        )
        with pytest.raises(ExplorationError):
            explorer.explore(
                [PRIORITY_PRESETS["balance"]],
                constraint=RuntimeConstraint(max_memory_bytes=1.0),
            )

    def test_rejects_bad_budgets(self, tiny_space, fitted_estimator, small_graph):
        with pytest.raises(ExplorationError):
            LocalSearchExplorer(
                tiny_space,
                fitted_estimator,
                profile_graph(small_graph),
                get_platform("rtx4090"),
                restarts=0,
            )
