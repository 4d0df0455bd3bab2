"""Estimator validation: metrics and the leave-one-dataset-out protocol.

Table 2 of the paper reports R2 scores for T and Γ (quantities with clear
theoretical structure) and MSE for Acc (the black-box-ish component), with
the estimator trained on all datasets *except* the one being predicted,
augmented with random power-law graphs (Sec. 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EstimatorError
from repro.estimator.features import predict_configs
from repro.estimator.graybox import GrayBoxEstimator
from repro.hardware.specs import get_platform

__all__ = ["r2_score", "mse", "EstimatorValidation", "validate_leave_one_out"]


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination; 1.0 is perfect, <=0 is useless."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise EstimatorError("shape mismatch in r2_score")
    if y_true.size < 2:
        raise EstimatorError("r2_score needs at least two samples")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean squared error."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise EstimatorError("shape mismatch in mse")
    return float(np.mean((y_true - y_pred) ** 2))


@dataclass(frozen=True)
class EstimatorValidation:
    """One Table 2 column: precision of the estimator on a held-out dataset."""

    dataset: str
    r2_time: float
    r2_memory: float
    mse_accuracy: float
    num_train: int
    num_test: int


def validate_leave_one_out(
    records_by_dataset: dict[str, list],
    *,
    platform: str = "rtx4090",
    random_state: int = 0,
) -> list[EstimatorValidation]:
    """Sec. 4.1 protocol: train on every dataset but one, predict that one.

    ``records_by_dataset`` may include augmentation entries (e.g. random
    power-law graphs) whose keys start with ``"aug"``; they join every
    training fold but are never held out.
    """
    held_out = [k for k in records_by_dataset if not k.startswith("aug")]
    if len(held_out) < 2:
        raise EstimatorError("leave-one-out needs at least two real datasets")
    results: list[EstimatorValidation] = []
    for target in held_out:
        train_records = [
            r
            for key, recs in records_by_dataset.items()
            if key != target
            for r in recs
        ]
        test_records = records_by_dataset[target]
        estimator = GrayBoxEstimator(random_state=random_state)
        estimator.fit(train_records)
        time_s, memory_bytes, accuracy = predict_configs(
            estimator,
            [r.config for r in test_records],
            [r.graph_profile for r in test_records],
            get_platform(platform),
        ).T
        results.append(
            EstimatorValidation(
                dataset=target,
                r2_time=r2_score(
                    np.array([r.time_s for r in test_records]), time_s
                ),
                r2_memory=r2_score(
                    np.array([r.memory_bytes for r in test_records]), memory_bytes
                ),
                mse_accuracy=mse(
                    np.array([r.accuracy for r in test_records]), accuracy
                ),
                num_train=len(train_records),
                num_test=len(test_records),
            )
        )
    return results
