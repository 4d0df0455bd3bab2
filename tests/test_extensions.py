"""Tests for the extension features: cluster sampler, config
serialization, time-to-accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TaskSpec, TrainingConfig
from repro.errors import ConfigError, SamplingError
from repro.hardware.memory import MemoryBreakdown
from repro.runtime import RuntimeBackend
from repro.runtime.report import EpochStats, PerfReport
from repro.sampling import ClusterSampler
from repro.wire import decode, encode


class TestClusterSampler:
    def test_batches_are_partition_unions(self, medium_graph, rng):
        sampler = ClusterSampler(8, parts_per_batch=2, seed=0)
        targets = rng.choice(medium_graph.num_nodes, 64, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        partition = sampler._partition
        parts_in_batch = np.unique(partition[batch.nodes])
        # Nodes outside the chosen partitions appear only if they were targets.
        chosen = set(batch.meta["partitions"])
        stray = batch.nodes[~np.isin(partition[batch.nodes], list(chosen))]
        assert set(stray.tolist()) <= set(targets.tolist())
        assert len(parts_in_batch) <= 2 + len(set(partition[targets]))

    def test_targets_always_included(self, medium_graph, rng):
        sampler = ClusterSampler(8, parts_per_batch=1, seed=0)
        targets = rng.choice(medium_graph.num_nodes, 32, replace=False)
        batch = sampler.sample(medium_graph, targets, rng=rng)
        assert np.all(np.isin(targets, batch.nodes))

    def test_loss_on_all_partition_nodes(self, medium_graph, rng):
        sampler = ClusterSampler(8, parts_per_batch=2)
        batch = sampler.sample(medium_graph, np.arange(50), rng=rng)
        assert batch.num_targets == batch.num_nodes

    def test_trains_in_backend(self, small_graph):
        cfg = TrainingConfig(
            batch_size=64, sampler="cluster", hop_list=(2,), hidden_channels=16
        )
        task = TaskSpec(dataset="tiny", arch="sage", epochs=2)
        report = RuntimeBackend(task, cfg, graph=small_graph).train()
        assert report.accuracy > 0.2

    def test_rejects_bad_args(self):
        with pytest.raises(SamplingError):
            ClusterSampler(0)
        with pytest.raises(SamplingError):
            ClusterSampler(4, parts_per_batch=0)

    def test_rejects_empty_targets(self, medium_graph, rng):
        with pytest.raises(SamplingError):
            ClusterSampler(4).sample(medium_graph, np.array([]), rng=rng)


class TestConfigSerialization:
    def test_roundtrip(self):
        cfg = TrainingConfig(
            batch_size=128, sampler="biased", bias_rate=0.7, hop_list=(4, 2)
        )
        assert decode(TrainingConfig, encode(cfg)) == cfg

    def test_json_compatible(self):
        import json

        cfg = TrainingConfig()
        payload = json.dumps(encode(cfg))
        assert decode(TrainingConfig, json.loads(payload)) == cfg

    def test_unknown_keys_ignored(self):
        # the wire rule: a newer (or older) peer's extra fields decode away
        assert decode(TrainingConfig, {"warp_speed": 9}) == TrainingConfig()

    def test_invalid_values_still_validated(self):
        data = encode(TrainingConfig())
        data["batch_size"] = -1
        with pytest.raises(ConfigError):
            decode(TrainingConfig, data)


class TestTimeToAccuracy:
    def _report(self, accs):
        epochs = [
            EpochStats(
                epoch=i,
                time_s=1.0,
                t_sample=0,
                t_transfer=0,
                t_replace=0,
                t_compute=0,
                mean_batch_nodes=0,
                mean_batch_edges=0,
                hit_rate=0,
                loss=0,
                val_accuracy=a,
                num_batches=1,
            )
            for i, a in enumerate(accs)
        ]
        return PerfReport(
            time_s=1.0,
            memory=MemoryBreakdown(0, 0, 0),
            accuracy=accs[-1],
            epochs=epochs,
        )

    def test_reached_mid_run(self):
        rep = self._report([0.3, 0.6, 0.8])
        assert rep.time_to_accuracy(0.55) == pytest.approx(2.0)

    def test_reached_first_epoch(self):
        rep = self._report([0.9])
        assert rep.time_to_accuracy(0.5) == pytest.approx(1.0)

    def test_never_reached(self):
        rep = self._report([0.3, 0.4])
        assert rep.time_to_accuracy(0.9) is None
