"""Project-specific analysis for the serving/runtime layers.

``repro.analysis`` keeps two kinds of check.  The static ones encode the
lock and lifecycle invariants the serving system lives by — guarded-field
discipline, no blocking work under a lock, threads, processes and pools
with a shutdown path — as AST checkers (stdlib ``ast`` only, no third-party
deps).  The runtime one, :mod:`repro.analysis.sanitizer`, watches real
executions and is the one lock-order check.

Run the static pass as ``repro lint`` or ``python -m repro.analysis``.
Findings are typed (rule id, path:line, message, severity); any finding
not accepted inline with ``# lint: disable=RULE`` fails the run.
"""

from __future__ import annotations

from pathlib import Path

from .core import (
    RULES,
    Collector,
    Finding,
    SourceModule,
    build_project,
    discover_files,
)
from .lockcheck import check_locks
from .report import AnalysisResult, render_json, render_text
from .rescheck import check_resources

__all__ = [
    "RULES",
    "Finding",
    "AnalysisResult",
    "run_analysis",
    "default_root",
    "default_paths",
    "render_text",
    "render_json",
]


def default_root() -> Path:
    """Repository root inferred from this package's location."""
    return Path(__file__).resolve().parents[3]


def default_paths(root: Path) -> list[Path]:
    return [root / "src" / "repro"]


def run_analysis(paths: list[Path], root: Path) -> AnalysisResult:
    """Run every checker over ``paths``."""
    files = discover_files(paths)
    modules = [SourceModule.load(path, root) for path in files]
    project = build_project(modules)
    collector = Collector()
    check_locks(project, collector)
    check_resources(project, collector)
    return AnalysisResult(
        findings=sorted(collector.findings, key=lambda f: f.sort_key),
        suppressed=len(collector.suppressed),
        files=len(files),
    )
