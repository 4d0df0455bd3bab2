"""Runtime backend tests: Algorithm 1 execution, reports, profiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TaskSpec, TrainingConfig, get_template
from repro.errors import ConfigError
from repro.runtime import ProfilingService, RuntimeBackend, profile_one
from repro.runtime.backend import make_sampler
from repro.sampling import (
    BiasedNeighborSampler,
    LayerSampler,
    NeighborSampler,
    SaintSampler,
)


@pytest.fixture()
def backend(small_graph, tiny_task, tiny_config) -> RuntimeBackend:
    return RuntimeBackend(tiny_task, tiny_config, graph=small_graph)


class TestMakeSampler:
    def test_sage(self, small_graph):
        s = make_sampler(TrainingConfig(sampler="sage"), small_graph, None)
        assert isinstance(s, NeighborSampler)

    def test_fastgcn_budgets_capped(self, small_graph):
        cfg = TrainingConfig(sampler="fastgcn", hop_list=(10, 5), batch_size=512)
        s = make_sampler(cfg, small_graph, None)
        assert isinstance(s, LayerSampler)
        assert max(s.layer_sizes) <= small_graph.num_nodes // 2

    def test_saint_walk_length(self, small_graph):
        cfg = TrainingConfig(sampler="saint", hop_list=(3, 3))
        s = make_sampler(cfg, small_graph, None)
        assert isinstance(s, SaintSampler)
        assert s.walk_length == 4

    def test_biased_without_cache_uses_hubs(self, small_graph):
        cfg = TrainingConfig(sampler="biased", bias_rate=0.9)
        s = make_sampler(cfg, small_graph, None)
        assert isinstance(s, BiasedNeighborSampler)
        assert s.hot_nodes.size > 0
        # Hot set should be high-degree vertices.
        hot_deg = small_graph.degrees[s.hot_nodes].mean()
        assert hot_deg > small_graph.degrees.mean()


class TestBackendConstruction:
    def test_requires_features(self, tiny_task, tiny_config):
        from repro.graphs import powerlaw_graph

        bare = powerlaw_graph(100, seed=0)
        with pytest.raises(ConfigError):
            RuntimeBackend(tiny_task, tiny_config, graph=bare)

    def test_cache_sized_by_ratio(self, backend, small_graph):
        expected = int(0.2 * small_graph.num_nodes)
        assert backend.cache.capacity == expected

    def test_canonicalises_config(self, small_graph, tiny_task):
        cfg = TrainingConfig(sampler="sage", bias_rate=0.9)
        b = RuntimeBackend(tiny_task, cfg, graph=small_graph)
        assert b.config.bias_rate == 0.0

    def test_splits_are_disjoint(self, backend):
        assert (
            np.intersect1d(backend.train_nodes, backend.test_nodes).size == 0
        )
        assert np.intersect1d(backend.train_nodes, backend.val_nodes).size == 0


class TestTraining:
    def test_perf_report_structure(self, backend, tiny_task):
        report = backend.train()
        assert len(report.epochs) == tiny_task.epochs
        assert report.time_s > 0
        assert report.memory.total > 0
        assert 0.0 <= report.accuracy <= 1.0

    def test_loss_decreases_across_epochs(self, small_graph):
        task = TaskSpec(dataset="tiny", arch="sage", epochs=5, lr=0.02)
        cfg = TrainingConfig(
            batch_size=64, hop_list=(4, 3), hidden_channels=16, dropout=0.2
        )
        report = RuntimeBackend(task, cfg, graph=small_graph).train()
        assert report.epochs[-1].loss < report.epochs[0].loss

    def test_batch_records_kept_when_asked(self, backend):
        report = backend.train(keep_batch_records=True)
        assert len(report.batches) == sum(e.num_batches for e in report.epochs)
        rec = report.batches[0]
        assert rec.num_nodes >= rec.num_targets
        assert rec.time == max(
            rec.t_sample + rec.t_transfer, rec.t_replace + rec.t_compute
        )

    def test_static_cache_produces_hits(self, small_graph, tiny_task):
        cfg = TrainingConfig(
            batch_size=64,
            hop_list=(4, 3),
            cache_ratio=0.5,
            cache_policy="static",
            hidden_channels=16,
        )
        report = RuntimeBackend(tiny_task, cfg, graph=small_graph).train()
        assert report.mean_hit_rate > 0.2

    def test_no_cache_no_hits(self, small_graph, tiny_task):
        cfg = TrainingConfig(batch_size=64, hop_list=(4, 3), hidden_channels=16)
        report = RuntimeBackend(tiny_task, cfg, graph=small_graph).train()
        assert report.mean_hit_rate == 0.0

    def test_cache_reduces_epoch_time(self, small_graph, tiny_task):
        base = TrainingConfig(batch_size=64, hop_list=(4, 3), hidden_channels=16)
        cached = TrainingConfig(
            batch_size=64,
            hop_list=(4, 3),
            cache_ratio=0.5,
            cache_policy="static",
            hidden_channels=16,
        )
        t_base = RuntimeBackend(tiny_task, base, graph=small_graph).train().time_s
        t_cached = RuntimeBackend(tiny_task, cached, graph=small_graph).train().time_s
        assert t_cached < t_base

    def test_cache_increases_memory(self, small_graph, tiny_task):
        base = TrainingConfig(batch_size=64, hop_list=(4, 3), hidden_channels=16)
        cached = TrainingConfig(
            batch_size=64,
            hop_list=(4, 3),
            cache_ratio=0.5,
            cache_policy="static",
            hidden_channels=16,
        )
        m_base = RuntimeBackend(tiny_task, base, graph=small_graph).train().memory
        m_cached = RuntimeBackend(tiny_task, cached, graph=small_graph).train().memory
        assert m_cached.cache > m_base.cache
        assert m_cached.total > m_base.total

    def test_saint_loss_never_uses_eval_labels(self, small_graph):
        """Label-leakage regression test: SAINT targets filtered to train."""
        task = TaskSpec(dataset="tiny", arch="sage", epochs=1)
        cfg = TrainingConfig(batch_size=64, sampler="saint", hop_list=(2, 2))
        backend = RuntimeBackend(task, cfg, graph=small_graph)
        train_mask = backend._train_mask
        for targets in backend.batches.epoch():
            batch = backend.sampler.sample(backend.graph, targets, rng=backend._rng)
            idx = batch.target_index
            filtered = idx[train_mask[batch.nodes[idx]]]
            assert np.all(train_mask[batch.nodes[filtered]])

    def test_gat_task_runs(self, small_graph):
        task = TaskSpec(dataset="tiny", arch="gat", epochs=1)
        cfg = TrainingConfig(
            batch_size=64, hop_list=(4, 3), hidden_channels=16, heads=2
        )
        report = RuntimeBackend(task, cfg, graph=small_graph).train()
        assert report.time_s > 0

    def test_objective_vector_orientation(self, backend):
        report = backend.train()
        vec = report.objective_vector()
        assert vec[0] == report.time_s
        assert vec[2] == -report.accuracy


class TestProfiler:
    def test_profile_one_record(self, small_graph, tiny_task, tiny_config):
        record, report = profile_one(tiny_task, tiny_config, graph=small_graph)
        assert record.time_s == report.time_s
        assert record.accuracy == report.accuracy
        assert record.mean_batch_nodes > 0
        assert record.features().ndim == 1

    def test_profile_batch(self, small_graph, tiny_task):
        configs = [
            TrainingConfig(batch_size=64, hop_list=(3, 2), hidden_channels=16),
            TrainingConfig(
                batch_size=64,
                hop_list=(3, 2),
                cache_ratio=0.3,
                cache_policy="static",
                hidden_channels=16,
            ),
        ]
        records = ProfilingService().profile(tiny_task, configs, graph=small_graph)
        assert len(records) == 2
        assert records[1].hit_rate > records[0].hit_rate


class TestEpochStatGuards:
    """Regression tests: NaN batch losses and empty epochs must not poison
    EpochStats (and with it the estimator's ground truth)."""

    def test_no_train_target_batches_do_not_poison_loss(
        self, small_graph, tiny_config
    ):
        import math

        from repro.sampling.batching import BatchIterator

        # Tiny train fraction, and batches scheduled over *validation*
        # vertices: every batch has zero training targets, so _train_step
        # reports NaN for each — the epoch loss must still be finite.
        task = TaskSpec(
            dataset="tiny", arch="sage", epochs=1, lr=0.02, train_frac=0.05
        )
        backend = RuntimeBackend(task, tiny_config, graph=small_graph)
        backend.batches = BatchIterator(
            backend.val_nodes, tiny_config.batch_size, order="sequential"
        )
        stats, records = backend.run_epoch(0)
        assert all(math.isnan(r.loss) for r in records)
        assert math.isfinite(stats.loss)
        assert stats.loss == 0.0

    def test_mixed_nan_batches_average_finite_losses_only(
        self, small_graph, tiny_config
    ):
        import math

        from repro.sampling.batching import BatchIterator

        task = TaskSpec(dataset="tiny", arch="sage", epochs=1, lr=0.02)
        backend = RuntimeBackend(task, tiny_config, graph=small_graph)
        # Sequential batches over train-then-val vertices: early batches
        # carry real losses, trailing all-val batches report NaN.
        mixed = np.concatenate([backend.train_nodes, backend.val_nodes])
        backend.batches = BatchIterator(
            mixed, tiny_config.batch_size, order="sequential"
        )
        stats, records = backend.run_epoch(0)
        finite = [r.loss for r in records if not math.isnan(r.loss)]
        assert finite and len(finite) < len(records)
        assert stats.loss == pytest.approx(float(np.mean(finite)))

    def test_zero_batch_epoch_yields_clean_stats(self, small_graph, tiny_config):
        import warnings

        from repro.sampling.batching import BatchIterator

        task = TaskSpec(dataset="tiny", arch="sage", epochs=1, lr=0.02)
        backend = RuntimeBackend(task, tiny_config, graph=small_graph)
        # drop_last with an oversized batch produces an epoch with zero
        # mini-batches; every mean reduction must degrade to 0.0 silently.
        backend.batches = BatchIterator(
            backend.train_nodes,
            backend.train_nodes.size + 1,
            order="sequential",
            drop_last=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats, records = backend.run_epoch(0)
        assert records == []
        assert stats.num_batches == 0
        assert stats.loss == 0.0
        assert stats.mean_batch_nodes == 0.0
        assert stats.hit_rate == 0.0
