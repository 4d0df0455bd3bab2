"""Text and JSON emitters for analysis results.

The text form is for humans at a terminal; the JSON form is the CI
artifact (``repro lint --format json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import RULES, Finding

__all__ = ["AnalysisResult", "render_text", "render_json", "render_rules"]


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: list[Finding] = field(default_factory=list)  # sorted
    suppressed: int = 0
    files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def render_text(result: AnalysisResult) -> str:
    lines = [finding.render() for finding in result.findings]
    status = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    lines.append(
        f"repro lint: {status} — {result.files} files, "
        f"{result.suppressed} suppressed inline"
    )
    return "\n".join(lines) + "\n"


def render_json(result: AnalysisResult) -> dict:
    return {
        "ok": result.ok,
        "files": result.files,
        "suppressed": result.suppressed,
        "findings": [finding.to_dict() for finding in result.findings],
    }


def render_rules() -> str:
    lines = ["rule catalog:"]
    for rule, (severity, description) in sorted(RULES.items()):
        lines.append(f"  {rule:9s} [{severity:7s}] {description}")
    return "\n".join(lines) + "\n"
