"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.fig1 import Fig1aPoint, Fig1bCurve, run_fig1a, run_fig1b
from repro.experiments.fig5 import Fig5Result, augmentation_records, run_fig5
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.table1 import (
    Table1Block,
    Table1Row,
    render_table1,
    run_table1,
    run_table1_task,
)
from repro.experiments.table2 import render_table2, run_table2
from repro.experiments.tables import format_delta_pct, format_ratio, render_table
from repro.experiments.tasks import (
    BASELINE_METHODS,
    METHOD_LABELS,
    NAVIGATOR_MODES,
    TABLE1_TASKS,
    TABLE2_DATASETS,
    estimator_task,
    table1_task,
)

__all__ = [
    "Fig1aPoint",
    "Fig1bCurve",
    "run_fig1a",
    "run_fig1b",
    "Fig5Result",
    "augmentation_records",
    "run_fig5",
    "Fig6Result",
    "run_fig6",
    "Table1Block",
    "Table1Row",
    "render_table1",
    "run_table1",
    "run_table1_task",
    "render_table2",
    "run_table2",
    "render_table",
    "format_ratio",
    "format_delta_pct",
    "BASELINE_METHODS",
    "METHOD_LABELS",
    "NAVIGATOR_MODES",
    "TABLE1_TASKS",
    "TABLE2_DATASETS",
    "estimator_task",
    "table1_task",
]
