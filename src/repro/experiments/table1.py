"""Table 1 — overall performance of GNNavigator across tasks.

For each task (PR+SAGE, RD2+SAGE, AR+GAT) run the four baseline templates
(PyG, Pa-Full, Pa-Low, 2P) and the four GNNavigator priorities (Bal, Ex-TM,
Ex-MA, Ex-TA), all trained to the same epoch budget on the runtime backend,
reporting measured ``T``, ``Γ`` and ``Acc`` with PyG-relative annotations —
exactly the paper's row structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.settings import TaskSpec
from repro.config.templates import get_template
from repro.experiments.tasks import (
    BASELINE_METHODS,
    METHOD_LABELS,
    NAVIGATOR_MODES,
    TABLE1_TASKS,
    table1_task,
)
from repro.experiments.tables import format_delta_pct, format_ratio, render_table
from repro.explorer.navigator import GNNavigator
from repro.runtime.backend import RuntimeBackend
from repro.runtime.parallel import ProfilingService, default_store_dir
from repro.runtime.report import PerfReport

__all__ = ["Table1Row", "Table1Block", "run_table1_task", "run_table1", "render_table1"]


@dataclass(frozen=True)
class Table1Row:
    """One method's measured performance on one task."""

    method: str
    time_s: float
    memory_bytes: float
    accuracy: float
    config_summary: str


@dataclass
class Table1Block:
    """All methods for one (dataset, arch) application."""

    label: str
    dataset: str
    arch: str
    rows: list[Table1Row] = field(default_factory=list)

    def row(self, method: str) -> Table1Row:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    @property
    def baseline(self) -> Table1Row:
        return self.row("pyg")


def _measure(task: TaskSpec, config) -> PerfReport:
    return RuntimeBackend(task, config).train()


def run_table1_task(
    label: str,
    dataset: str,
    arch: str,
    *,
    epochs: int = 8,
    profile_budget: int = 40,
    profile_epochs: int = 4,
    workers: int | None = None,
) -> Table1Block:
    """Run every method of one Table 1 block."""
    task = table1_task(dataset, arch, epochs=epochs)
    block = Table1Block(label=label, dataset=dataset, arch=arch)

    for method in BASELINE_METHODS:
        report = _measure(task, get_template(method))
        block.rows.append(
            Table1Row(
                method=method,
                time_s=report.time_s,
                memory_bytes=float(report.memory.total),
                accuracy=report.accuracy,
                config_summary=report.config_summary,
            )
        )

    # GNNavigator: the user's path (Step 2 on the shared store, then one
    # explore), then measure each priority's guideline with the same epoch
    # budget.
    with ProfilingService(max_workers=workers, cache_dir=default_store_dir()) as service:
        nav = GNNavigator(
            task,
            profile_budget=profile_budget,
            profile_epochs=profile_epochs,
            profiler=service,
        )
        report = nav.explore(priorities=list(NAVIGATOR_MODES))
    for mode in NAVIGATOR_MODES:
        guideline = report.guidelines[mode]
        measured = _measure(task, guideline.config)
        block.rows.append(
            Table1Row(
                method=mode,
                time_s=measured.time_s,
                memory_bytes=float(measured.memory.total),
                accuracy=measured.accuracy,
                config_summary=measured.config_summary,
            )
        )
    return block


def run_table1(
    *,
    epochs: int = 8,
    profile_budget: int = 40,
    profile_epochs: int = 4,
    workers: int | None = None,
) -> list[Table1Block]:
    """All three applications of Table 1."""
    return [
        run_table1_task(
            label,
            dataset,
            arch,
            epochs=epochs,
            profile_budget=profile_budget,
            profile_epochs=profile_epochs,
            workers=workers,
        )
        for label, dataset, arch in TABLE1_TASKS
    ]


def render_table1(blocks: list[Table1Block]) -> str:
    """Paper-shaped text rendering with PyG-relative annotations."""
    headers = ["Application", "Method", "Time (T)/ms", "Memory (Γ)/MiB", "Accuracy"]
    rows: list[list[str]] = []
    for block in blocks:
        base = block.baseline
        for i, row in enumerate(block.rows):
            time_ms = row.time_s * 1e3
            mem_mib = row.memory_bytes / 1024**2
            if row.method == "pyg":
                time_cell = f"{time_ms:.2f}"
                mem_cell = f"{mem_mib:.1f}"
            else:
                time_cell = (
                    f"{time_ms:.2f} ({format_ratio(row.time_s, base.time_s)})"
                )
                mem_cell = (
                    f"{mem_mib:.1f} "
                    f"({format_delta_pct(row.memory_bytes, base.memory_bytes)})"
                )
            rows.append(
                [
                    block.label if i == 0 else "",
                    METHOD_LABELS[row.method],
                    time_cell,
                    mem_cell,
                    f"{row.accuracy * 100:.2f}%",
                ]
            )
    return render_table(headers, rows, title="Table 1: Performance of GNNavigator across different tasks")
