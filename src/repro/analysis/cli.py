"""Command-line front end for the analysis pass.

Reached three ways, all sharing :func:`run_lint`:

* ``repro lint`` — subcommand of the main CLI;
* ``python -m repro.analysis`` — direct module entry;
* the CI ``analysis`` job — ``repro lint --format json``, with the findings
  uploaded as an artifact.

Exit status is 0 when no (non-suppressed) finding fires, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import default_paths, default_root, run_analysis
from .report import render_json, render_rules, render_text

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="repository root for relative paths",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    if args.rules:
        sys.stdout.write(render_rules())
        return 0
    root = (args.root or default_root()).resolve()
    paths = [path.resolve() for path in args.paths] or default_paths(root)
    result = run_analysis(paths, root)
    if args.format == "json":
        sys.stdout.write(json.dumps(render_json(result), indent=2) + "\n")
    else:
        sys.stdout.write(render_text(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="project-specific static analysis (see `--rules`)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))
