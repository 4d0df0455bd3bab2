"""Gray-box estimator tests: batch-size model, end-to-end fit/predict, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TaskSpec, TrainingConfig
from repro.config.columns import ConfigColumns
from repro.errors import EstimatorError
from repro.estimator import (
    BlackBoxEstimator,
    GrayBoxEstimator,
    analytic_batch_size,
    encode,
    encode_names,
    r2_score,
    validate_leave_one_out,
)
from repro.estimator.batchsize import BlackBoxBatchSizeModel, GrayBoxBatchSizeModel
from repro.estimator.features import predict_configs
from repro.estimator.graybox import PerfRows
from repro.graphs.profiling import profile_graph
from repro.hardware import Platform, get_platform
from repro.runtime import ProfilingService


def _predict_rows(estimator, configs, profiles, platform="rtx4090") -> PerfRows:
    """:func:`predict_configs` as rows, with the platform by name or value."""
    if not isinstance(platform, Platform):
        platform = get_platform(platform)
    return PerfRows(predict_configs(estimator, configs, profiles, platform))


def _measured_records(graph, *, n=14, epochs=2, seed=0, arch="sage"):
    """Ground-truth records over a small random config set."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n):
        configs.append(
            TrainingConfig(
                batch_size=int(rng.choice([32, 64, 128])),
                sampler=str(rng.choice(["sage", "biased", "saint", "fastgcn"])),
                hop_list=tuple(
                    int(k) for k in rng.choice([2, 3, 4], size=2)
                ),
                bias_rate=float(rng.choice([0.0, 0.9])),
                cache_ratio=float(rng.choice([0.0, 0.2, 0.5])),
                cache_policy=str(rng.choice(["none", "static", "lru"])),
                hidden_channels=int(rng.choice([8, 16])),
            ).canonical()
        )
    configs = list(dict.fromkeys(configs))
    task = TaskSpec(dataset="tiny", arch=arch, epochs=epochs)
    return ProfilingService().profile(task, configs, graph=graph)


@pytest.fixture(scope="module")
def records(small_graph):
    return _measured_records(small_graph, n=16)


class TestEncode:
    def test_length_matches_names(self):
        vec = encode(
            TrainingConfig(),
            profile_graph_fixture(),
            get_platform("rtx4090"),
        )
        assert vec.shape == (len(encode_names()),)

    def test_always_finite(self):
        vec = encode(
            TrainingConfig(), profile_graph_fixture(), get_platform("a100")
        )
        assert np.all(np.isfinite(vec))


def profile_graph_fixture():
    from repro.graphs.generators import powerlaw_community_graph

    return profile_graph(
        powerlaw_community_graph(200, num_classes=4, feature_dim=8, seed=3)
    )


class TestBatchSizeModels:
    def test_analytic_monotone_in_batch(self, small_graph):
        profile = profile_graph(small_graph)
        small = analytic_batch_size(TrainingConfig(batch_size=32), profile)
        large = analytic_batch_size(TrainingConfig(batch_size=128), profile)
        assert large > small

    def test_analytic_capped_by_graph(self, small_graph):
        profile = profile_graph(small_graph)
        huge = analytic_batch_size(
            TrainingConfig(batch_size=2048, hop_list=(25, 25)), profile
        )
        assert huge <= small_graph.num_nodes

    def test_graybox_beats_blackbox_out_of_sample(self, small_graph, medium_graph):
        """The Fig. 5 claim: theory-guided prediction generalises better."""
        train = _measured_records(small_graph, n=16, seed=1)
        test = _measured_records(medium_graph, n=10, seed=2)
        configs_tr = [r.config for r in train]
        profs_tr = [r.graph_profile for r in train]
        y_tr = np.array([r.mean_batch_nodes for r in train])
        configs_te = [r.config for r in test]
        profs_te = [r.graph_profile for r in test]
        y_te = np.array([r.mean_batch_nodes for r in test])

        gray = GrayBoxBatchSizeModel().fit(configs_tr, profs_tr, y_tr)
        black = BlackBoxBatchSizeModel().fit(configs_tr, profs_tr, y_tr)
        gray_err = np.abs(gray.predict(configs_te, profs_te) - y_te).mean()
        black_err = np.abs(black.predict(configs_te, profs_te) - y_te).mean()
        assert gray_err < black_err

    def test_predict_before_fit(self, small_graph):
        with pytest.raises(EstimatorError):
            GrayBoxBatchSizeModel().predict(
                [TrainingConfig()], [profile_graph(small_graph)]
            )

    def test_fit_rejects_misaligned(self, small_graph):
        with pytest.raises(EstimatorError):
            GrayBoxBatchSizeModel().fit(
                [TrainingConfig()], [profile_graph(small_graph)], np.array([1.0, 2.0])
            )


class TestGrayBoxEstimator:
    def test_fit_predict_shapes(self, records):
        est = GrayBoxEstimator().fit(records)
        preds = _predict_rows(
            est, [r.config for r in records], [r.graph_profile for r in records]
        )
        assert len(preds) == len(records)
        for p in preds:
            assert p.time_s > 0 and p.memory_bytes > 0 and 0 <= p.accuracy <= 1

    def test_in_sample_time_correlates(self, records):
        est = GrayBoxEstimator().fit(records)
        preds = _predict_rows(
            est, [r.config for r in records], [r.graph_profile for r in records]
        )
        measured = np.array([r.time_s for r in records])
        predicted = np.array([p.time_s for p in preds])
        assert r2_score(measured, predicted) > 0.5

    def test_in_sample_memory_correlates(self, records):
        est = GrayBoxEstimator().fit(records)
        preds = _predict_rows(
            est, [r.config for r in records], [r.graph_profile for r in records]
        )
        measured = np.array([r.memory_bytes for r in records])
        predicted = np.array([p.memory_bytes for p in preds])
        assert r2_score(measured, predicted) > 0.5

    def test_needs_enough_records(self, records):
        with pytest.raises(EstimatorError):
            GrayBoxEstimator().fit(records[:3])

    def test_predict_before_fit(self, records):
        est = GrayBoxEstimator()
        with pytest.raises(EstimatorError):
            est.predict(
                ConfigColumns([records[0].config]),
                records[0].graph_profile,
                get_platform("rtx4090"),
            )

    def test_white_box_only_mode(self, records):
        est = GrayBoxEstimator(use_residuals=False).fit(records)
        preds = _predict_rows(
            est, [r.config for r in records], [r.graph_profile for r in records]
        )
        assert all(np.isfinite(p.time_s) for p in preds)

    def test_batch_size_access(self, records):
        est = GrayBoxEstimator().fit(records)
        sizes = est.predict_batch_sizes(
            [r.config for r in records], [r.graph_profile for r in records]
        )
        assert np.all(sizes > 0)


class TestBlackBoxEstimator:
    def test_fit_predict(self, records):
        est = BlackBoxEstimator().fit(records)
        preds = est.predict(
            [r.config for r in records], [r.graph_profile for r in records]
        )
        assert len(preds) == len(records)

    def test_predict_before_fit(self, records):
        with pytest.raises(EstimatorError):
            BlackBoxEstimator().predict(
                [records[0].config], [records[0].graph_profile]
            )


class TestLeaveOneOut:
    def test_protocol_runs(self, small_graph, medium_graph):
        by_dataset = {
            "tiny": _measured_records(small_graph, n=12, seed=5),
            "medium": _measured_records(medium_graph, n=12, seed=6),
        }
        results = validate_leave_one_out(by_dataset)
        assert {r.dataset for r in results} == {"tiny", "medium"}
        for r in results:
            assert r.num_train == 12 and r.num_test == 12
            assert r.mse_accuracy >= 0.0

    def test_augmentation_never_held_out(self, small_graph, medium_graph):
        by_dataset = {
            "tiny": _measured_records(small_graph, n=10, seed=7),
            "medium": _measured_records(medium_graph, n=10, seed=8),
            "aug0": _measured_records(small_graph, n=10, seed=9),
        }
        results = validate_leave_one_out(by_dataset)
        assert {r.dataset for r in results} == {"tiny", "medium"}
        assert all(r.num_train == 20 for r in results)

    def test_needs_two_datasets(self, small_graph):
        with pytest.raises(EstimatorError):
            validate_leave_one_out({"tiny": _measured_records(small_graph, n=10)})
