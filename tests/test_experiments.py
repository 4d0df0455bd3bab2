"""Experiment-harness tests (fast paths: rendering, task registry, Step 2's
ground truth, Fig. 6 bookkeeping)."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.config import TaskSpec
from repro.experiments import (
    BASELINE_METHODS,
    METHOD_LABELS,
    NAVIGATOR_MODES,
    TABLE1_TASKS,
    TABLE2_DATASETS,
    format_delta_pct,
    format_ratio,
    render_table,
)
from repro.config.columns import ConfigColumns
from repro.config.space import DesignSpace, default_space
from repro.config.settings import TrainingConfig
from repro.config.templates import TEMPLATES
from repro.experiments import fig6
from repro.explorer import GNNavigator
from repro.hardware import get_platform
from repro.runtime import ProfilingService, parallel


class TestTables:
    def test_render_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_ratio(self):
        assert format_ratio(5.0, 10.0) == "2.0x"
        assert format_ratio(0.0, 10.0) == "n/a"

    def test_format_delta_pct(self):
        assert format_delta_pct(150.0, 100.0) == "+50.0%"
        assert format_delta_pct(70.0, 100.0) == "-30.0%"
        assert format_delta_pct(1.0, 0.0) == "n/a"


class TestTaskRegistry:
    def test_table1_tasks_match_paper(self):
        labels = [label for label, _, _ in TABLE1_TASKS]
        assert labels == ["PR + SAGE", "RD2 + SAGE", "AR + GAT"]

    def test_table2_datasets(self):
        assert set(TABLE2_DATASETS) == {"reddit", "reddit2", "ogbn-products"}

    def test_method_labels_cover_all(self):
        for m in BASELINE_METHODS + NAVIGATOR_MODES:
            assert m in METHOD_LABELS


class TestGroundTruth:
    """The experiments take Step 2's round 0 from the navigator."""

    def test_round_zero_holds_one_record_per_distinct_candidate(self, small_graph):
        # At seed 15 one of the 40 sampled configs equals a template.
        navigator = GNNavigator(
            TaskSpec("tiny", epochs=1),
            graph=small_graph,
            profile_budget=40,
            profile_epochs=1,
            seed=15,
        )
        sample = default_space().sample(40, rng=np.random.default_rng(15))
        sample.extend(TEMPLATES.values())
        assert len({c.canonical() for c in sample}) == 44 < len(sample)

        report = navigator.explore(priorities=["balance"])
        configs = [r.config for r in navigator.records]
        assert configs == list(dict.fromkeys(c.canonical() for c in sample))
        assert len(set(configs)) == 44
        assert report.num_ground_truth == 44

    def test_fit_on_given_records_profiles_nothing(self, small_graph):
        """``fit_estimator(records)`` fits what it is given, as it would fit
        the same records from round 0 (Fig. 6 hands in its own)."""
        task = TaskSpec("tiny", epochs=1)
        kwargs = dict(graph=small_graph, profile_budget=8, profile_epochs=1)
        measured = GNNavigator(task, **kwargs)
        measured.fit_estimator()

        class NoProfiler:
            def profile(self, *args, **kwargs):
                raise AssertionError("fit_estimator(records) profiled")

        given = GNNavigator(task, profiler=NoProfiler(), **kwargs)
        given.fit_estimator(measured.records)
        assert given.records == measured.records
        columns = ConfigColumns([r.config for r in measured.records])
        platform = get_platform("rtx4090")
        assert np.array_equal(
            given.estimator.predict(columns, small_graph.profile, platform),
            measured.estimator.predict(columns, small_graph.profile, platform),
        )

    def test_records_have_targets(self, small_graph):
        records = GNNavigator(
            TaskSpec("tiny", epochs=1),
            graph=small_graph,
            profile_budget=8,
            profile_epochs=1,
        ).ground_truth()
        for r in records:
            assert r.time_s > 0 and r.memory_bytes > 0
            assert np.isfinite(r.accuracy)

    def test_store_holds_one_file_per_record(self, small_graph, tmp_path):
        store = tmp_path / "store"
        records = GNNavigator(
            TaskSpec("tiny", epochs=1),
            graph=small_graph,
            profile_budget=8,
            profile_epochs=1,
            profiler=ProfilingService(cache_dir=store),
        ).ground_truth()
        names = sorted(p.name for p in store.iterdir())
        assert len(names) == len(records)
        assert {n.split("_")[0] for n in names} == {"gt"}


class TestFig6:
    def test_a_guideline_outside_the_space_is_measured_once(
        self, small_graph, tmp_path, monkeypatch
    ):
        """Two priorities that pick one template outside the space share
        one appended record."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        space = DesignSpace(
            {"batch_size": (32, 64), "hidden_channels": (8,)},
            base=TrainingConfig(hop_list=(3, 2)),
        )
        outside = TEMPLATES["pyg"].canonical()
        assert outside not in {c.canonical() for c in space.enumerate()}

        class Navigator:
            def __init__(self, task, *, space):
                pass

            def fit_estimator(self, records):
                pass

            def explore(self, *, priorities):
                pick = SimpleNamespace(config=outside)
                return SimpleNamespace(guidelines={p: pick for p in priorities})

        monkeypatch.setattr(fig6, "reduced_space", lambda: space)
        monkeypatch.setattr(fig6, "GNNavigator", Navigator)
        monkeypatch.setattr(parallel, "load_dataset", lambda name: small_graph)
        result = fig6.run_fig6(dataset="tiny", epochs=1)

        assert len(result.records) == len(space.enumerate()) + 1
        assert set(result.guideline_indices.values()) == {len(result.records) - 1}
        assert result.records[-1].config == outside
