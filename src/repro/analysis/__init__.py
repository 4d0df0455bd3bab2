"""Project-specific static analysis for the serving/runtime layers.

``repro.analysis`` encodes the invariants the serving system lives by —
lock discipline, a deadlock-free lock-acquisition order, no blocking work
under a lock, metric/resource hygiene and cancellation/progress
plumbing — as AST checkers (stdlib ``ast`` only, no third-party deps).

Run it as ``repro lint`` or ``python -m repro.analysis``.  Findings are
typed (rule id, path:line, message, severity); the committed
``analysis-baseline.json`` makes CI fail only on *new* findings.
"""

from __future__ import annotations

from pathlib import Path

from .baseline import load_baseline, render_baseline, split_findings
from .core import (
    RULES,
    Collector,
    Finding,
    SourceModule,
    build_project,
    discover_files,
)
from .dynamic import ObservedGraph, render_dot, verify_dynamic
from .lockcheck import check_locks
from .lockorder import LockOrderGraph, analyze_lock_order
from .metriccheck import check_metrics
from .plumbing import check_plumbing
from .report import AnalysisResult, render_json, render_text
from .rescheck import check_resources

__all__ = [
    "RULES",
    "Finding",
    "LockOrderGraph",
    "ObservedGraph",
    "AnalysisResult",
    "run_analysis",
    "default_root",
    "default_paths",
    "default_baseline_path",
    "render_text",
    "render_json",
    "render_dot",
    "render_baseline",
]


def default_root() -> Path:
    """Repository root inferred from this package's location."""
    return Path(__file__).resolve().parents[3]


def default_paths(root: Path) -> list[Path]:
    return [root / "src" / "repro"]


def default_baseline_path(root: Path) -> Path:
    return root / "analysis-baseline.json"


def run_analysis(
    paths: list[Path],
    root: Path,
    baseline_path: Path | None = None,
    observed_path: Path | None = None,
) -> AnalysisResult:
    """Run every checker over ``paths`` and partition against the baseline.

    ``observed_path`` — a sanitizer report (see
    :mod:`repro.analysis.sanitizer`) — switches on the dynamic
    cross-validation: the observed lock graph is diffed against the
    static LOCK002 graph and DYN001-003 findings join the result.
    """
    files = discover_files(paths)
    modules = [SourceModule.load(path, root) for path in files]
    project = build_project(modules)
    collector = Collector()
    check_locks(project, collector)
    graph = analyze_lock_order(project, collector)
    check_plumbing(project, collector)
    check_metrics(project, collector)
    check_resources(project, collector)
    findings = list(collector.findings)
    dynamic = None
    if observed_path is not None:
        observed = ObservedGraph.load(observed_path)
        dynamic, dyn_findings = verify_dynamic(graph, observed)
        findings.extend(dyn_findings)
    findings = sorted(findings, key=lambda f: f.sort_key)
    accepted = load_baseline(baseline_path)
    new, baselined, stale = split_findings(findings, accepted)
    return AnalysisResult(
        findings=findings,
        new=new,
        baselined=baselined,
        stale=stale,
        suppressed=len(collector.suppressed),
        files=len(files),
        graph=graph,
        dynamic=dynamic,
    )
