"""Ablation — why "gray-box"?  (design choice called out in DESIGN.md)

Compares three estimator variants on held-out ground truth:

* gray-box (paper): analytic Eqs. 4-10 + learned intermediates + residuals;
* white-box only: the same analytics with residual corrections disabled;
* black-box only: forests straight from features to targets.

Expected shape: gray-box wins on the held-out dataset; white-only carries
the right trends but misses constants; black-only overfits the training
datasets' scales.
"""

from __future__ import annotations

import numpy as np

from repro.estimator import BlackBoxEstimator, GrayBoxEstimator, r2_score
from repro.estimator.features import predict_configs
from repro.experiments import render_table
from repro.experiments.tasks import estimator_task
from repro.explorer import GNNavigator
from repro.hardware.specs import get_platform
from repro.runtime.parallel import ProfilingService, default_store_dir


def _fold(quick: bool):
    budget, epochs = (16, 2) if quick else (40, 4)
    service = ProfilingService(cache_dir=default_store_dir())

    def ground_truth(dataset: str):
        return GNNavigator(
            estimator_task(dataset, epochs=epochs),
            profile_budget=budget,
            profile_epochs=epochs,
            profiler=service,
        ).ground_truth()

    train = []
    for ds in ("reddit", "ogbn-products"):
        train.extend(ground_truth(ds))
    return train, ground_truth("reddit2")


def _score(estimator, test):
    configs = [r.config for r in test]
    profiles = [r.graph_profile for r in test]
    if isinstance(estimator, BlackBoxEstimator):
        table = estimator.predict(configs, profiles).table
    else:
        table = predict_configs(estimator, configs, profiles, get_platform("rtx4090"))
    r2_t = r2_score(np.array([r.time_s for r in test]), table[:, 0])
    r2_m = r2_score(np.array([r.memory_bytes for r in test]), table[:, 1])
    return r2_t, r2_m


def test_ablation_graybox_vs_alternatives(run_once, emit, quick):
    def experiment():
        train, test = _fold(quick)
        gray = GrayBoxEstimator().fit(train)
        white = GrayBoxEstimator(use_residuals=False).fit(train)
        black = BlackBoxEstimator().fit(train)
        return {
            "gray-box (paper)": _score(gray, test),
            "white-box only": _score(white, test),
            "black-box only": _score(black, test),
        }

    scores = run_once(experiment)

    rows = [
        [name, f"{r2_t:.4f}", f"{r2_m:.4f}"]
        for name, (r2_t, r2_m) in scores.items()
    ]
    emit()
    emit(
        render_table(
            ["estimator", "R2 Time", "R2 Memory"],
            rows,
            title="Ablation: estimator composition (held-out Reddit2)",
        )
    )
    gray_t, gray_m = scores["gray-box (paper)"]
    if not quick:  # the 16-record quick fold is too small for R2 bands
        assert gray_t >= scores["black-box only"][0] - 0.05
        assert gray_m >= scores["black-box only"][1] - 0.05
        assert gray_t > 0.5 and gray_m > 0.5
