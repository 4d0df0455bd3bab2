"""Component tests for estimator feature functions and the accuracy model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig
from repro.config.columns import ConfigColumns
from repro.errors import EstimatorError
from repro.estimator.accuracy import AccuracyModel, accuracy_features
from repro.estimator.graybox import _hit_features
from repro.graphs.profiling import GraphProfile


def _profile(**overrides) -> GraphProfile:
    base = dict(
        name="p",
        num_nodes=2000,
        num_edges=16000,
        feature_dim=32,
        num_classes=8,
        avg_degree=8.0,
        max_degree=120,
        degree_std=12.0,
        degree_skew=4.0,
        powerlaw_exponent=2.1,
        feature_bytes=256000,
    )
    base.update(overrides)
    return GraphProfile(**base)


def _accuracy_row(cfg, profile, batch_nodes, batch_edges) -> np.ndarray:
    """The feature row of one candidate."""
    return accuracy_features(
        ConfigColumns([cfg]), profile, np.array([batch_nodes]), np.array([batch_edges])
    )[0]


def _hit_row(cfg, profile) -> np.ndarray:
    return _hit_features(ConfigColumns([cfg]), profile)[0]


class TestAccuracyFeatures:
    def test_eq11_inputs_present(self):
        cfg = TrainingConfig(batch_size=128, hop_list=(5, 3))
        feats = _accuracy_row(cfg, _profile(), 800.0, 6400.0)
        # Deg(G_i) = 8.0, Deg(G) = 8.0, ratio 1.0.
        assert feats[0] == pytest.approx(8.0)
        assert feats[1] == pytest.approx(8.0)
        assert feats[2] == pytest.approx(1.0)

    def test_batch_fraction(self):
        cfg = TrainingConfig()
        feats = _accuracy_row(cfg, _profile(), 500.0, 2000.0)
        assert feats[4] == pytest.approx(500.0 / 2000.0)

    def test_sampler_onehot_tail(self):
        from repro.config.settings import SAMPLER_NAMES

        cfg = TrainingConfig(sampler="saint", hop_list=(3, 3))
        feats = _accuracy_row(cfg, _profile(), 100.0, 400.0)
        onehot = feats[-len(SAMPLER_NAMES):]
        assert onehot[SAMPLER_NAMES.index("saint")] == 1.0
        assert onehot.sum() == 1.0


class TestHitFeatures:
    def test_cache_knobs_encoded(self):
        cfg = TrainingConfig(
            cache_ratio=0.4, cache_policy="lru", batch_order="partition"
        )
        feats = _hit_row(cfg, _profile())
        assert feats[0] == pytest.approx(0.4)
        assert feats[2] == 1.0  # partition order flag

    def test_policy_onehot_exclusive(self):
        for policy, ratio in (("none", 0.0), ("static", 0.3), ("fifo", 0.3), ("lru", 0.3)):
            cfg = TrainingConfig(cache_policy=policy, cache_ratio=ratio)
            feats = _hit_row(cfg, _profile())
            onehot = feats[6:10]
            assert onehot.sum() == 1.0


class TestAccuracyModel:
    def _records(self, n=20):
        """Synthetic records where accuracy depends on batch coverage."""
        from repro.config import TaskSpec
        from repro.runtime.profiler import GroundTruthRecord

        rng = np.random.default_rng(0)
        records = []
        for _ in range(n):
            nodes = float(rng.integers(100, 1900))
            coverage = nodes / 2000.0
            acc = 0.5 + 0.4 * coverage + rng.normal(0, 0.01)
            records.append(
                GroundTruthRecord(
                    config=TrainingConfig(
                        batch_size=int(rng.choice([64, 128, 256]))
                    ),
                    task=TaskSpec(dataset="x", arch="sage", epochs=1),
                    graph_profile=_profile(),
                    time_s=0.01,
                    memory_bytes=1e6,
                    accuracy=float(np.clip(acc, 0, 1)),
                    mean_batch_nodes=nodes,
                    mean_batch_edges=nodes * 8,
                    hit_rate=0.0,
                    t_sample=1e-3,
                    t_transfer=1e-3,
                    t_replace=0.0,
                    t_compute=1e-3,
                    num_batches=4,
                )
            )
        return records

    def test_learns_coverage_trend(self):
        records = self._records()
        model = AccuracyModel().fit(records)
        profile = _profile()
        cfgs = ConfigColumns([TrainingConfig(), TrainingConfig()])
        preds = model.predict(
            cfgs, profile, np.array([200.0, 1800.0]), np.array([1600.0, 14400.0])
        )
        assert preds[1] > preds[0] + 0.1

    def test_predictions_clipped(self):
        records = self._records()
        model = AccuracyModel().fit(records)
        preds = model.predict(
            ConfigColumns([TrainingConfig()]), _profile(), np.array([1.0]), np.array([8.0])
        )
        assert 0.0 <= preds[0] <= 1.0

    def test_fit_empty_rejected(self):
        with pytest.raises(EstimatorError):
            AccuracyModel().fit([])

    def test_predict_before_fit(self):
        with pytest.raises(EstimatorError):
            AccuracyModel().predict(
                ConfigColumns([TrainingConfig()]), _profile(), np.array([1.0]), np.array([8.0])
            )
