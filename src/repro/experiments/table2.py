"""Table 2 — precision of the gray-box performance estimator.

Leave-one-dataset-out over Reddit / Reddit2 / Ogbn-products with random
power-law graph augmentation (Sec. 4.1): R2 scores for T and Γ, MSE for Acc.
"""

from __future__ import annotations

from repro.estimator.validation import EstimatorValidation, validate_leave_one_out
from repro.experiments.fig5 import augmentation_records
from repro.experiments.tables import render_table
from repro.experiments.tasks import TABLE2_DATASETS, estimator_task
from repro.explorer.navigator import GNNavigator
from repro.runtime.parallel import ProfilingService, default_store_dir

__all__ = ["run_table2", "render_table2"]


def run_table2(
    *,
    budget: int = 40,
    epochs: int = 4,
    with_augmentation: bool = True,
) -> list[EstimatorValidation]:
    """Collect each dataset's Step-2 ground truth and run the leave-one-out
    protocol."""
    service = ProfilingService(cache_dir=default_store_dir())
    by_dataset = {
        dataset: GNNavigator(
            estimator_task(dataset, epochs=epochs),
            profile_budget=budget,
            profile_epochs=epochs,
            profiler=service,
        ).ground_truth()
        for dataset in TABLE2_DATASETS
    }
    if with_augmentation:
        for i, recs in enumerate(augmentation_records()):
            by_dataset[f"aug{i}"] = recs
    return validate_leave_one_out(by_dataset)


def render_table2(results: list[EstimatorValidation]) -> str:
    """Paper-shaped rendering: metrics as rows, datasets as columns."""
    order = {"reddit": 0, "reddit2": 1, "ogbn-products": 2}
    results = sorted(results, key=lambda r: order.get(r.dataset, 99))
    headers = ["Validation", "Performance Metric"] + [r.dataset for r in results]
    rows = [
        ["R2 Score", "Time Cost (T)"] + [f"{r.r2_time:.4f}" for r in results],
        ["R2 Score", "Memory (Γ)"] + [f"{r.r2_memory:.4f}" for r in results],
        ["MSE", "Accuracy (Acc)"] + [f"{r.mse_accuracy:.4f}" for r in results],
    ]
    return render_table(
        headers, rows, title="Table 2: Validation of estimator prediction"
    )
