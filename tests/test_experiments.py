"""Experiment-harness tests (fast paths: rendering, caching, task registry)."""

from __future__ import annotations

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
from repro.experiments.cache import _recipe_key, clear_cache, profiling_records
from repro.config.space import DesignSpace
from repro.config.settings import TrainingConfig


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


class TestRecordCache:
    def _space(self) -> DesignSpace:
        return DesignSpace(
            {"batch_size": (32, 64), "hidden_channels": (8,)},
            base=TrainingConfig(hop_list=(3, 2)),
        )

    def test_recipe_key_stable(self):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        k1 = _recipe_key(task, 4, 0, self._space())
        k2 = _recipe_key(task, 4, 0, self._space())
        assert k1 == k2

    def test_recipe_key_sensitive_to_task(self):
        space = self._space()
        t1 = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        t2 = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        assert _recipe_key(t1, 4, 0, space) != _recipe_key(t2, 4, 0, space)

    def test_memory_cache_hit(self, small_graph):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        kwargs = dict(
            budget=2,
            seed=1,
            space=self._space(),
            graph=small_graph,
            include_templates=False,
            use_disk=False,
        )
        first = profiling_records(task, **kwargs)
        second = profiling_records(task, **kwargs)
        assert first is second  # memory-cached, not re-profiled

    def test_clear_cache_empties_the_store_dir(
        self, small_graph, tmp_path, monkeypatch
    ):
        """One file per record goes, and the in-process memo goes too."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        kwargs = dict(
            budget=2,
            seed=3,
            space=self._space(),
            graph=small_graph,
            include_templates=False,
        )
        first = profiling_records(task, **kwargs)
        names = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert len(names) == len(first)
        assert {n.split("_")[0] for n in names} == {"gt"}
        clear_cache()
        assert list((tmp_path / "store").iterdir()) == []
        assert profiling_records(task, **kwargs) is not first

    def test_records_have_targets(self, small_graph):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        records = profiling_records(
            task,
            budget=2,
            seed=2,
            space=self._space(),
            graph=small_graph,
            include_templates=False,
            use_disk=False,
        )
        for r in records:
            assert r.time_s > 0 and r.memory_bytes > 0
            assert np.isfinite(r.accuracy)
