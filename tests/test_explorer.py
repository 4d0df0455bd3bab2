"""Explorer tests: objectives, constraints, Pareto, DFS, decisions, navigator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DesignSpace, TaskSpec, TrainingConfig
from repro.errors import ExplorationError
from repro.estimator import GrayBoxEstimator
from repro.estimator.graybox import PredictedPerf
from repro.explorer import (
    DecisionMaker,
    DFSExplorer,
    ExploreTarget,
    GNNavigator,
    PRIORITY_PRESETS,
    RuntimeConstraint,
    dominates,
    get_target,
    hypervolume_2d,
    normalize_objectives,
    pareto_front_indices,
    pareto_mask,
)
from repro.explorer.dfs import ExplorationResult
from repro.graphs.profiling import profile_graph
from repro.hardware import get_platform
from tests.test_estimator_graybox import _measured_records


@pytest.fixture(scope="module")
def fitted_estimator(small_graph):
    records = _measured_records(small_graph, n=16, seed=20)
    return GrayBoxEstimator().fit(records)


@pytest.fixture(scope="module")
def tiny_space() -> DesignSpace:
    return DesignSpace(
        {
            "batch_size": (32, 64),
            "sampler": ("sage", "biased"),
            "bias_rate": (0.0, 0.9),
            "cache_ratio": (0.0, 0.3),
            "cache_policy": ("none", "static"),
            "hidden_channels": (8, 16),
        },
        base=TrainingConfig(hop_list=(3, 2)),
    )


class TestObjectives:
    def test_presets_exist(self):
        assert set(PRIORITY_PRESETS) == {"balance", "ex_tm", "ex_ma", "ex_ta"}

    def test_get_target_normalises_name(self):
        assert get_target("EX-TM").name == "ex_tm"

    def test_unknown_target(self):
        with pytest.raises(ExplorationError):
            get_target("speed")

    def test_weights_sum_to_one(self):
        for target in PRIORITY_PRESETS.values():
            assert target.weights().sum() == pytest.approx(1.0)

    def test_score_prefers_lower(self):
        target = get_target("balance")
        objs = normalize_objectives(
            np.array([[1.0, 1.0, -0.5], [2.0, 2.0, -0.4]])
        )
        scores = target.score(objs)
        assert scores[0] < scores[1]

    def test_extreme_weighting(self):
        # ex_tm must rank a fast/lean/inaccurate config above a slow/fat/
        # accurate one; balance ranks them closer.
        objs = normalize_objectives(
            np.array([[0.0, 0.0, 0.0], [1.0, 1.0, -1.0]])
        )
        tm_scores = get_target("ex_tm").score(objs)
        assert tm_scores[0] < tm_scores[1]

    def test_rejects_negative_weights(self):
        with pytest.raises(ExplorationError):
            ExploreTarget("bad", -1.0, 1.0, 1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ExplorationError):
            ExploreTarget("bad", 0.0, 0.0, 0.0)


class TestConstraints:
    def test_unbounded(self):
        assert RuntimeConstraint().is_unbounded()

    def test_bounds_checked(self):
        c = RuntimeConstraint(max_time_s=1.0, max_memory_bytes=100.0, min_accuracy=0.5)
        ok = PredictedPerf(time_s=0.5, memory_bytes=50, accuracy=0.9)
        slow = PredictedPerf(time_s=2.0, memory_bytes=50, accuracy=0.9)
        fat = PredictedPerf(time_s=0.5, memory_bytes=500, accuracy=0.9)
        dumb = PredictedPerf(time_s=0.5, memory_bytes=50, accuracy=0.1)
        assert c.satisfied_by(ok)
        assert not c.satisfied_by(slow)
        assert not c.satisfied_by(fat)
        assert not c.satisfied_by(dumb)

    def test_slack_relaxes(self):
        c = RuntimeConstraint(max_time_s=1.0)
        near = PredictedPerf(time_s=1.1, memory_bytes=0.1, accuracy=1.0)
        assert not c.satisfied_by(near)
        assert c.satisfied_by(near, slack=0.2)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ExplorationError):
            RuntimeConstraint(max_time_s=-1.0)
        with pytest.raises(ExplorationError):
            RuntimeConstraint(min_accuracy=1.5)

    def test_describe(self):
        c = RuntimeConstraint(max_time_s=0.5, min_accuracy=0.8)
        assert "T<=" in c.describe() and "Acc>=" in c.describe()


class TestPareto:
    def test_dominates(self):
        assert dominates(np.array([1, 1]), np.array([2, 2]))
        assert not dominates(np.array([1, 2]), np.array([2, 1]))
        assert not dominates(np.array([1, 1]), np.array([1, 1]))

    def test_mask_simple(self):
        objs = np.array([[1, 2], [2, 1], [2, 2], [3, 3]])
        mask = pareto_mask(objs)
        assert mask.tolist() == [True, True, False, False]

    def test_front_sorted_by_first_objective(self):
        objs = np.array([[2, 1], [1, 2], [3, 3]])
        idx = pareto_front_indices(objs)
        assert objs[idx][0, 0] <= objs[idx][-1, 0]

    def test_duplicates_both_kept(self):
        objs = np.array([[1, 1], [1, 1], [2, 2]])
        mask = pareto_mask(objs)
        assert mask[0] and mask[1] and not mask[2]

    def test_empty(self):
        assert pareto_mask(np.zeros((0, 3))).size == 0

    def test_hypervolume_rectangle(self):
        objs = np.array([[1.0, 1.0]])
        assert hypervolume_2d(objs, np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_hypervolume_monotone_in_front_quality(self):
        ref = np.array([10.0, 10.0])
        worse = hypervolume_2d(np.array([[5.0, 5.0]]), ref)
        better = hypervolume_2d(np.array([[5.0, 5.0], [2.0, 8.0]]), ref)
        assert better > worse

    def test_hypervolume_requires_2d(self):
        with pytest.raises(ExplorationError):
            hypervolume_2d(np.zeros((1, 3)), np.zeros(3))


class TestDFSExplorer:
    def test_unconstrained_explores_everything(
        self, tiny_space, fitted_estimator, small_graph
    ):
        explorer = DFSExplorer(
            tiny_space, fitted_estimator, profile_graph(small_graph),
            get_platform("rtx4090"),
        )
        result = explorer.explore()
        # Canonical deduplication shrinks the cartesian product to the
        # evaluated candidate set.
        assert len(result.candidates) == len(tiny_space.enumerate())
        assert len(result.candidates) == len(result.predictions)

    def test_constraints_filter(self, tiny_space, fitted_estimator, small_graph):
        explorer = DFSExplorer(
            tiny_space, fitted_estimator, profile_graph(small_graph),
            get_platform("rtx4090"),
        )
        free = explorer.explore()
        # Memory barely varies on the tiny fixture (runtime floor dominates);
        # epoch time spreads with batch size and caching, so constrain that.
        times = np.array([p.time_s for p in free.predictions])
        tight = RuntimeConstraint(max_time_s=float(np.percentile(times, 5)))
        constrained = explorer.explore(constraint=tight)
        assert len(constrained.candidates) < len(free.candidates)

    def test_infeasible_constraint_raises(
        self, tiny_space, fitted_estimator, small_graph
    ):
        explorer = DFSExplorer(
            tiny_space, fitted_estimator, profile_graph(small_graph),
            get_platform("rtx4090"),
        )
        # every candidate is estimated, and the filter keeps none
        with pytest.raises(ExplorationError, match="all candidates violate"):
            explorer.explore(
                constraint=RuntimeConstraint(max_memory_bytes=1.0)
            )

    def test_initial_candidates_included(
        self, tiny_space, fitted_estimator, small_graph
    ):
        seed_cfg = TrainingConfig(
            batch_size=96, hop_list=(3, 2), hidden_channels=8
        )
        explorer = DFSExplorer(
            tiny_space, fitted_estimator, profile_graph(small_graph),
            get_platform("rtx4090"),
        )
        result = explorer.explore(initial_candidates=[seed_cfg])
        assert seed_cfg.canonical() in result.candidates


class TestDecisionMaker:
    def _result(self) -> ExplorationResult:
        configs = [
            TrainingConfig(batch_size=32),
            TrainingConfig(batch_size=64),
            TrainingConfig(batch_size=128),
        ]
        preds = [
            PredictedPerf(time_s=1.0, memory_bytes=300.0, accuracy=0.9),
            PredictedPerf(time_s=0.5, memory_bytes=200.0, accuracy=0.7),
            PredictedPerf(time_s=2.0, memory_bytes=400.0, accuracy=0.8),  # dominated
        ]
        return ExplorationResult(candidates=configs, predictions=preds)

    def test_front_excludes_dominated(self):
        dm = DecisionMaker(self._result())
        front_configs = [c for c, _ in dm.front()]
        assert TrainingConfig(batch_size=128) not in front_configs

    def test_priorities_pick_differently(self):
        dm = DecisionMaker(self._result())
        fast = dm.choose(get_target("ex_tm"))
        accurate = dm.choose(get_target("ex_ma"))
        assert fast.predicted.time_s <= accurate.predicted.time_s
        assert accurate.predicted.accuracy >= fast.predicted.accuracy

    def test_accuracy_floor_filters(self):
        dm = DecisionMaker(self._result())
        g = dm.choose(get_target("ex_tm"), accuracy_drop=0.05)
        # Floor 0.9-0.05 excludes the 0.7 candidate.
        assert g.predicted.accuracy >= 0.85

    def test_floor_fallback_when_empty(self):
        dm = DecisionMaker(self._result())
        g = dm.choose(get_target("balance"), accuracy_drop=-0.01)
        assert g is not None  # falls back to the full front

    def test_choose_all(self):
        dm = DecisionMaker(self._result())
        guidelines = dm.choose_all([get_target("balance"), get_target("ex_tm")])
        assert set(guidelines) == {"balance", "ex_tm"}

    def test_empty_result_rejected(self):
        with pytest.raises(ExplorationError):
            DecisionMaker(ExplorationResult(candidates=[], predictions=[]))

    #: light and accurate, fast, dominant but NaN-timed, middling
    _ROWS = (
        (32, 1.0, 100.0, 0.90),
        (64, 0.2, 400.0, 0.70),
        (128, float("nan"), 50.0, 0.95),
        (256, 0.6, 200.0, 0.85),
    )

    def _rows(self, *picked: int) -> ExplorationResult:
        rows = [self._ROWS[i] for i in picked]
        return ExplorationResult(
            candidates=[TrainingConfig(batch_size=b) for b, *_ in rows],
            predictions=[PredictedPerf(*perf) for _, *perf in rows],
        )

    def test_a_nan_row_is_left_out_of_the_front(self):
        """One NaN estimate used to turn every score NaN (the winner was
        then the front's first row, or the NaN row itself)."""
        targets = [get_target(p) for p in sorted(PRIORITY_PRESETS)]
        dm = DecisionMaker(self._rows(0, 1, 2, 3))
        assert 2 not in dm.front_indices.tolist()
        guidelines = dm.choose_all(targets)
        assert all(np.isfinite(g.score) for g in guidelines.values())
        assert guidelines == DecisionMaker(self._rows(0, 1, 3)).choose_all(targets)
        assert guidelines["balance"].config == TrainingConfig(batch_size=32)

    def test_no_finite_row_is_rejected(self):
        with pytest.raises(ExplorationError, match="finite"):
            DecisionMaker(self._rows(2))


class TestNavigator:
    def test_end_to_end_tiny(self, small_graph, tiny_space):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        nav = GNNavigator(
            task,
            space=tiny_space,
            graph=small_graph,
            profile_budget=10,
            profile_epochs=1,
        )
        report = nav.explore(priorities=["balance"])
        assert "balance" in report.guidelines
        guideline = report.guidelines["balance"]
        perf = nav.apply(guideline)
        assert perf.time_s > 0
        assert report.exploration.evaluated >= len(tiny_space.enumerate())

    def test_guideline_describe(self, small_graph, tiny_space):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        nav = GNNavigator(
            task,
            space=tiny_space,
            graph=small_graph,
            profile_budget=10,
            profile_epochs=1,
        )
        report = nav.explore(priorities=["ex_tm"])
        desc = report.guidelines["ex_tm"].describe()
        assert "ex_tm" in desc and "T~" in desc

    def test_budget_validated(self, small_graph):
        with pytest.raises(ExplorationError):
            GNNavigator(
                TaskSpec(dataset="tiny", arch="sage"),
                graph=small_graph,
                profile_budget=2,
            )
