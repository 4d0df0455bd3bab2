"""Shared model of the project-specific static analysis pass.

The serving layer coordinates ~40 lock/condition sites; :mod:`repro.analysis`
encodes its lock and lifecycle invariants once and enforces them at lint
time.  This module holds everything the rule checkers share:

* :class:`Finding` — one typed diagnostic (rule id, path:line, message,
  severity);
* source annotations — ``# guarded-by: <lock>`` marks a field that must only
  be touched under that lock, ``# holds: <lock>`` marks a helper that is
  only ever called with the lock already held, and ``# lint: disable=RULE``
  suppresses findings on its line (the one way to accept a finding);
* the project model — per-class lock declarations (with ``Condition(lock)``
  aliasing), guarded fields and a function registry — built once per run
  and consumed by every rule.

The analysis is best-effort and *syntactic*, and prefers a missed finding
over a false one.  Everything here is stdlib-only by design.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RULES",
    "Finding",
    "Collector",
    "SourceModule",
    "ClassModel",
    "FunctionModel",
    "Project",
    "dotted_name",
    "discover_files",
    "build_project",
]

#: rule catalog: id -> (default severity, one-line description).
RULES: dict[str, tuple[str, str]] = {
    "LOCK001": ("error", "guarded field accessed outside its lock"),
    "LOCK003": ("warning", "blocking call inside a held-lock region"),
    "RES001": ("error", "thread, process or pool without a join/daemon/shutdown path"),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and what went wrong."""

    path: str  # repo-relative posix path
    line: int
    rule: str
    message: str
    severity: str = "error"

    @property
    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.rule} [{self.severity}] "
            f"{self.message}"
        )


class Collector:
    """Finding sink that applies per-line ``# lint: disable`` suppressions."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []

    def emit(
        self, module: "SourceModule", line: int, rule: str, message: str
    ) -> None:
        severity = RULES[rule][0]
        finding = Finding(
            path=module.relpath,
            line=line,
            rule=rule,
            message=message,
            severity=severity,
        )
        disabled = module.suppressions.get(line)
        if disabled is not None and (not disabled or rule in disabled):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)


# ------------------------------------------------------- source + annotations
# Annotations may share a comment with prose ("# lane map; guarded-by: _lock"),
# so they match anywhere after the "#", not only at the comment start.
_GUARDED_RE = re.compile(r"#.*\bguarded-by:\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)")
_HOLDS_RE = re.compile(r"#.*\bholds:\s*([A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)")
_SUPPRESS_RE = re.compile(r"#.*\blint:\s*disable(?:=([A-Z0-9_,\s]+))?")


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


@dataclass
class SourceModule:
    """One parsed file plus its comment-carried annotations (by line)."""

    path: Path
    relpath: str
    tree: ast.Module
    lines: list[str]
    guarded_by: dict[int, tuple[str, ...]] = field(default_factory=dict)
    holds: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: line -> suppressed rule ids (empty set = every rule).
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceModule":
        text = path.read_text(encoding="utf-8")
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        module = cls(
            path=path,
            relpath=relpath,
            tree=ast.parse(text, filename=str(path)),
            lines=text.splitlines(),
        )
        for lineno, line in enumerate(module.lines, start=1):
            if "#" not in line:
                continue
            match = _GUARDED_RE.search(line)
            if match:
                module.guarded_by[lineno] = _split_names(match.group(1))
            match = _HOLDS_RE.search(line)
            if match:
                module.holds[lineno] = _split_names(match.group(1))
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = match.group(1)
                module.suppressions[lineno] = frozenset(
                    _split_names(rules) if rules else ()
                )
        return module


def discover_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                seen[sub] = None
        elif path.suffix == ".py":
            seen[path] = None
    return sorted(seen)


# ----------------------------------------------------------- syntax utilities
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _simple_name(node: ast.AST | None) -> str | None:
    """Last part of a dotted name: ``threading.Lock`` -> ``Lock``."""
    name = dotted_name(node) if node is not None else None
    return None if name is None else name.rsplit(".", maxsplit=1)[-1]


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for an expression of the exact shape ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


_LOCK_CTORS = {"Lock", "RLock", "Condition"}


# -------------------------------------------------------------- project model
@dataclass
class ClassModel:
    """Lock and field facts the rules need about one class."""

    name: str
    module: SourceModule
    #: lock attribute -> the attribute it wraps (``Condition(self.Y)`` -> Y).
    locks: dict[str, str | None] = field(default_factory=dict)
    guarded_fields: dict[str, tuple[str, ...]] = field(default_factory=dict)
    holds_methods: dict[str, tuple[str, ...]] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    def canonical_lock(self, name: str) -> str:
        """Follow ``Condition(base_lock)`` aliases down to the base lock."""
        seen = set()
        while name in self.locks and name not in seen:
            seen.add(name)
            wraps = self.locks[name]
            if wraps is None:
                break
            name = wraps
        return name

    def expand_held(self, names) -> frozenset[str]:
        """Canonical lock names covered by holding each of ``names``."""
        return frozenset(self.canonical_lock(name) for name in names)


@dataclass
class FunctionModel:
    """One function or method."""

    name: str
    qualname: str  # "relpath::Class.method" or "relpath::func"
    cls: str | None
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef


class Project:
    """Everything the rule checkers share about the analyzed file set."""

    def __init__(self) -> None:
        self.classes: dict[str, list[ClassModel]] = {}
        self.functions: dict[str, list[FunctionModel]] = {}

    # ------------------------------------------------------------- registries
    def add_class(self, model: ClassModel) -> None:
        self.classes.setdefault(model.name, []).append(model)

    def add_function(self, model: FunctionModel) -> None:
        self.functions.setdefault(model.name, []).append(model)

    def class_named(self, name: str | None) -> ClassModel | None:
        """The class with this simple name, when it is unambiguous."""
        models = self.classes.get(name or "")
        if models is not None and len(models) == 1:
            return models[0]
        return None


# ------------------------------------------------------------------- builders
def _collect_class(module: SourceModule, node: ast.ClassDef) -> ClassModel:
    model = ClassModel(name=node.name, module=module)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if _simple_name(stmt.annotation) in _LOCK_CTORS:
                model.locks[stmt.target.id] = None
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[stmt.name] = stmt
            holds = module.holds.get(stmt.lineno)
            if holds is not None:
                model.holds_methods[stmt.name] = holds
    # Lock declarations and guarded-by annotations come from ``self.X = ...``
    # statements anywhere in the class body (usually __init__); the *first*
    # declaration of an attribute wins.
    for method in model.methods.values():
        for stmt in ast.walk(method):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                guards = module.guarded_by.get(stmt.lineno)
                if guards is not None:
                    model.guarded_fields.setdefault(attr, guards)
                if not isinstance(value, ast.Call) or attr in model.locks:
                    continue
                ctor = _simple_name(value.func)
                if ctor in _LOCK_CTORS:
                    wraps = None
                    if ctor == "Condition" and value.args:
                        wraps = _self_attr(value.args[0])
                    model.locks[attr] = wraps
    return model


def _collect_function(
    module: SourceModule,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: str | None,
) -> FunctionModel:
    scope = f"{cls}.{node.name}" if cls is not None else node.name
    return FunctionModel(
        name=node.name,
        qualname=f"{module.relpath}::{scope}",
        cls=cls,
        module=module,
        node=node,
    )


def build_project(modules: list[SourceModule]) -> Project:
    """Collect every class and function model across the analyzed files."""
    project = Project()
    for module in modules:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                project.add_class(_collect_class(module, node))
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        project.add_function(
                            _collect_function(module, stmt, node.name)
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                project.add_function(_collect_function(module, node, None))
    return project
