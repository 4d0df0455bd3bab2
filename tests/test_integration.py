"""Cross-module integration tests on the tiny fixture graph.

These exercise full pipelines end to end: every template trains; the
navigator honours constraints; estimator predictions drive decisions that
hold up when measured.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DesignSpace, TaskSpec, TrainingConfig, template_names, get_template
from repro.config.columns import ConfigColumns
from repro.explorer import GNNavigator, RuntimeConstraint, get_target
from repro.runtime import RuntimeBackend


@pytest.fixture(scope="module")
def space() -> DesignSpace:
    return DesignSpace(
        {
            "batch_size": (32, 64),
            "sampler": ("sage", "biased", "saint"),
            "bias_rate": (0.0, 0.9),
            "cache_ratio": (0.0, 0.3),
            "cache_policy": ("none", "static", "lru"),
        },
        base=TrainingConfig(hop_list=(3, 2), hidden_channels=16),
    )


class TestTemplatesEndToEnd:
    @pytest.mark.parametrize("name", template_names())
    def test_template_trains(self, name, small_graph):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        config = get_template(name, batch_size=64, hidden_channels=16)
        report = RuntimeBackend(task, config, graph=small_graph).train()
        assert report.time_s > 0
        assert report.accuracy > 0.2, f"{name} failed to learn anything"

    def test_template_signature_tradeoffs(self, small_graph):
        """PaGraph adds memory to save time relative to PyG."""
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        pyg = RuntimeBackend(
            task, get_template("pyg", batch_size=64, hidden_channels=16),
            graph=small_graph,
        ).train()
        pa = RuntimeBackend(
            task, get_template("pagraph_full", batch_size=64, hidden_channels=16),
            graph=small_graph,
        ).train()
        assert pa.time_s < pyg.time_s
        assert pa.memory.total > pyg.memory.total


class TestNavigatorConstraints:
    def test_memory_constraint_respected_in_measurement(self, small_graph, space):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        nav = GNNavigator(
            task, space=space, graph=small_graph,
            profile_budget=10, profile_epochs=1,
        )
        free = nav.explore(priorities=["balance"])
        mems = [p.memory_bytes for p in free.exploration.predictions]
        budget = float(np.percentile(mems, 50))
        constrained = nav.explore(
            constraint=RuntimeConstraint(max_memory_bytes=budget),
            priorities=["balance"],
        )
        guideline = constrained.guidelines["balance"]
        measured = nav.apply(guideline)
        # Allow estimator error; measured memory must be near the budget.
        assert measured.memory.total <= budget * 1.3

    def test_priorities_produce_distinct_tradeoffs(self, small_graph, space):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        nav = GNNavigator(
            task, space=space, graph=small_graph,
            profile_budget=10, profile_epochs=1,
        )
        report = nav.explore(priorities=["ex_tm", "ex_ma"])
        tm = report.guidelines["ex_tm"].predicted
        ma = report.guidelines["ex_ma"].predicted
        # Ex-TM leans fast/lean, Ex-MA leans accurate: orderings must agree
        # with the priorities on at least their emphasised axes.
        assert tm.time_s <= ma.time_s * 1.25
        assert ma.accuracy >= tm.accuracy - 0.02

    def test_navigate_convenience(self, small_graph, space):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        nav = GNNavigator(
            task, space=space, graph=small_graph,
            profile_budget=10, profile_epochs=1,
        )
        guideline, perf = nav.navigate(priority="balance")
        assert guideline.priority == "balance"
        assert perf.accuracy > 0.2


class TestEstimatorDecisionQuality:
    def test_predicted_time_ordering_mostly_holds(self, small_graph, space):
        """Estimated epoch-time ordering should correlate with measured."""
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        nav = GNNavigator(
            task, space=space, graph=small_graph,
            profile_budget=12, profile_epochs=2,
        )
        nav.fit_estimator()
        candidates = space.sample(8, rng=np.random.default_rng(3))
        table = nav.estimator.predict(
            ConfigColumns([c.canonical() for c in candidates]), nav.profile, nav.platform
        )
        measured = [
            RuntimeBackend(task, c, graph=small_graph).train().time_s
            for c in candidates
        ]
        pred_times = table[:, 0]
        # Spearman-like check: correlation of ranks must be positive.
        pr = np.argsort(np.argsort(pred_times))
        mr = np.argsort(np.argsort(measured))
        rho = np.corrcoef(pr, mr)[0, 1]
        assert rho > 0.3, f"rank correlation too weak: {rho:.2f}"
