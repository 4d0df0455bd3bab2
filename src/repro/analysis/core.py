"""Shared model of the project-specific static analysis pass.

The serving layer coordinates ~40 lock/condition sites; :mod:`repro.analysis`
encodes its system invariants once and enforces them at lint time.  This
module holds everything the rule checkers share:

* :class:`Finding` — one typed diagnostic (rule id, path:line, message,
  severity) with a line-independent fingerprint for the baseline store;
* source annotations — ``# guarded-by: <lock>`` marks a field that must only
  be touched under that lock, ``# holds: <lock>`` marks a helper that is
  only ever called with the lock already held, and ``# lint: disable=RULE``
  suppresses findings on its line;
* the project model — per-class lock declarations (with ``Condition(lock)``
  aliasing), guarded fields, attribute/parameter types, and a function
  registry — built once per run and consumed by every rule.

The analysis is best-effort and *syntactic*: it resolves method calls only
through annotations and constructor assignments it can see, and prefers a
missed edge over a false one.  Everything here is stdlib-only by design.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RULES",
    "Finding",
    "Collector",
    "SourceModule",
    "LockDecl",
    "ClassModel",
    "FunctionModel",
    "Project",
    "TypeEnv",
    "annotation_name",
    "dotted_name",
    "discover_files",
    "build_project",
]

#: rule catalog: id -> (default severity, one-line description).
RULES: dict[str, tuple[str, str]] = {
    "LOCK001": ("error", "guarded field accessed outside its lock"),
    "LOCK002": ("error", "lock-order cycle (deadlock potential)"),
    "LOCK003": ("warning", "blocking call inside a held-lock region"),
    "PLUMB001": ("error", "cancellation/progress seat not forwarded"),
    "METRIC001": ("error", "metric family misregistered (name/kind/duplicate)"),
    "METRIC002": ("error", "metric label hygiene violation (labels/leak)"),
    "RES001": ("error", "thread or pool without join/daemon/shutdown path"),
    "DYN001": ("error", "observed lock-order edge missing from static graph"),
    "DYN002": ("error", "merged static+observed lock graph has a cycle"),
    "DYN003": ("error", "runtime sanitizer reported a concurrency violation"),
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, and what went wrong.

    ``fingerprint`` deliberately excludes the line number, so a baseline
    entry keeps matching while unrelated edits shift the file around it.
    """

    path: str  # repo-relative posix path
    line: int
    rule: str
    message: str
    severity: str = "error"

    @property
    def fingerprint(self) -> str:
        text = f"{self.rule}|{self.path}|{self.message}"
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

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
            "fingerprint": self.fingerprint,
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


def annotation_name(node: ast.AST | None) -> str | None:
    """Best-effort simple type name of an annotation expression.

    ``EventBuffer`` -> ``EventBuffer``; ``threading.Lock`` -> ``Lock``;
    ``dict[str, Job]`` -> ``dict``; ``X | None`` -> ``X``;
    ``Optional[X]`` -> ``X``; ``"Quoted"`` -> ``Quoted``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = annotation_name(node.value)
        if base == "Optional":
            return annotation_name(node.slice)
        return base
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = annotation_name(node.left)
        if left == "None":
            return annotation_name(node.right)
        return left
    return None


def _self_attr(node: ast.AST) -> str | None:
    """``X`` for an expression of the exact shape ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


_LOCK_CTORS = {"Lock": "lock", "RLock": "rlock", "Condition": "condition"}


def _lock_ctor_kind(call: ast.AST) -> str | None:
    if not isinstance(call, ast.Call):
        return None
    name = dotted_name(call.func)
    if name is None:
        return None
    return _LOCK_CTORS.get(name.rsplit(".", maxsplit=1)[-1])


# -------------------------------------------------------------- project model
@dataclass(frozen=True)
class LockDecl:
    """One lock-ish attribute of a class (``self.X = threading.Lock()``)."""

    attr: str
    kind: str  # "lock" | "rlock" | "condition"
    wraps: str | None = None  # Condition(self.Y) -> Y


@dataclass
class ClassModel:
    """Lock/field/type facts the rules need about one class."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    locks: dict[str, LockDecl] = field(default_factory=dict)
    guarded_fields: dict[str, tuple[str, ...]] = field(default_factory=dict)
    holds_methods: dict[str, tuple[str, ...]] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)

    def canonical_lock(self, name: str) -> str:
        """Follow ``Condition(base_lock)`` aliases down to the base lock."""
        seen = set()
        while name in self.locks and name not in seen:
            seen.add(name)
            wraps = self.locks[name].wraps
            if wraps is None:
                break
            name = wraps
        return name

    def expand_held(self, names) -> frozenset[str]:
        """Canonical lock names covered by holding each of ``names``."""
        return frozenset(self.canonical_lock(name) for name in names)


@dataclass
class FunctionModel:
    """One function or method plus the signature facts the rules consume."""

    name: str
    qualname: str  # "relpath::Class.method" or "relpath::func"
    cls: str | None
    module: SourceModule
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...] = ()
    positional: tuple[str, ...] = ()
    kwonly: tuple[str, ...] = ()
    has_varkw: bool = False
    returns: str | None = None

    def accepts(self, name: str) -> bool:
        return name in self.params or self.has_varkw

    def keyword_position(self, name: str) -> int | None:
        """Index a positional argument must reach to bind ``name`` (methods:
        ``self``/``cls`` already stripped), or ``None`` for keyword-only."""
        if name in self.positional:
            return self.positional.index(name)
        return None


class Project:
    """Everything the rule checkers share about the analyzed file set."""

    def __init__(self, modules: list[SourceModule]) -> None:
        self.modules = modules
        self.classes: dict[str, list[ClassModel]] = {}
        self.functions: dict[str, list[FunctionModel]] = {}
        self._methods: dict[tuple[str, str], FunctionModel] = {}

    # ------------------------------------------------------------- registries
    def add_class(self, model: ClassModel) -> None:
        self.classes.setdefault(model.name, []).append(model)

    def add_function(self, model: FunctionModel) -> None:
        self.functions.setdefault(model.name, []).append(model)
        if model.cls is not None:
            self._methods.setdefault((model.cls, model.name), model)

    def class_named(self, name: str | None) -> ClassModel | None:
        """The class with this simple name, when it is unambiguous."""
        models = self.classes.get(name or "")
        if models is not None and len(models) == 1:
            return models[0]
        return None

    def method(self, cls: str | None, name: str) -> FunctionModel | None:
        if cls is None:
            return None
        return self._methods.get((cls, name))

    def attr_type(self, cls: str | None, attr: str) -> str | None:
        model = self.class_named(cls)
        if model is None:
            return None
        return model.attr_types.get(attr)

    # ------------------------------------------------------- call resolution
    def resolve_call(
        self, call: ast.Call, env: "TypeEnv"
    ) -> FunctionModel | None:
        """The callee function model, when types/annotations pin it down."""
        func = call.func
        if isinstance(func, ast.Name):
            # A constructor call types as the class's __init__ when known.
            cls = self.class_named(func.id)
            if cls is not None:
                return self.method(func.id, "__init__")
            candidates = self.functions.get(func.id, [])
            same_module = [
                f
                for f in candidates
                if f.module is env.module and f.cls is None
            ]
            if len(same_module) == 1:
                return same_module[0]
            if len(candidates) == 1 and candidates[0].cls is None:
                return candidates[0]
            return None
        if isinstance(func, ast.Attribute):
            receiver = env.type_of(func.value)
            return self.method(receiver, func.attr)
        return None


class TypeEnv:
    """Best-effort local type environment for one function body.

    Seeds ``self``/``cls`` and annotated parameters, then lets the caller
    record simple ``name = expr`` assignments as it walks statements in
    order.  Types are simple class names; ``None`` means unknown.
    """

    def __init__(self, project: Project, func: FunctionModel) -> None:
        self.project = project
        self.module = func.module
        self.locals: dict[str, str] = {}
        if func.cls is not None:
            self.locals["self"] = func.cls
            self.locals["cls"] = func.cls
        args = func.node.args
        for arg in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
        ]:
            name = annotation_name(arg.annotation)
            if name is not None:
                self.locals[arg.arg] = name

    def record_assign(self, node: ast.stmt) -> None:
        """Track ``x = expr`` / ``x: T = ...`` for later receiver typing."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                inferred = self.type_of(node.value)
                if inferred is not None:
                    self.locals[target.id] = inferred
                else:
                    self.locals.pop(target.id, None)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            name = annotation_name(node.annotation)
            if name is not None:
                self.locals[node.target.id] = name

    def type_of(self, expr: ast.AST) -> str | None:
        if isinstance(expr, ast.Name):
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return self.project.attr_type(self.type_of(expr.value), expr.attr)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and self.project.class_named(func.id):
                return func.id
            callee = self.project.resolve_call(expr, self)
            if callee is not None:
                return callee.returns
        return None


# ------------------------------------------------------------------- builders
def _collect_class(module: SourceModule, node: ast.ClassDef) -> ClassModel:
    model = ClassModel(name=node.name, module=module, node=node)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            attr = stmt.target.id
            ann = annotation_name(stmt.annotation)
            if annotation_name(stmt.annotation) == "ClassVar":
                continue
            if ann is not None:
                model.attr_types[attr] = ann
            if ann in _LOCK_CTORS:
                model.locks[attr] = LockDecl(
                    attr=attr, kind=_LOCK_CTORS[ann]
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[stmt.name] = stmt
            holds = module.holds.get(stmt.lineno)
            if holds is not None:
                model.holds_methods[stmt.name] = holds
    # Lock declarations, guarded-by annotations and attribute types come from
    # ``self.X = ...`` statements anywhere in the class body (usually
    # __init__); the *first* declaration of an attribute wins.
    for method in model.methods.values():
        param_types = {
            arg.arg: annotation_name(arg.annotation)
            for arg in [
                *method.args.posonlyargs,
                *method.args.args,
                *method.args.kwonlyargs,
            ]
            if arg.annotation is not None
        }
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
                if isinstance(stmt, ast.AnnAssign):
                    ann = annotation_name(stmt.annotation)
                    if ann is not None:
                        model.attr_types.setdefault(attr, ann)
                kind = _lock_ctor_kind(value)
                if kind is not None and attr not in model.locks:
                    wraps = None
                    if kind == "condition" and value.args:
                        wraps = _self_attr(value.args[0])
                    model.locks[attr] = LockDecl(
                        attr=attr, kind=kind, wraps=wraps
                    )
                elif isinstance(value, ast.Call):
                    ctor = dotted_name(value.func)
                    if ctor is not None:
                        model.attr_types.setdefault(
                            attr, ctor.rsplit(".", maxsplit=1)[-1]
                        )
                elif isinstance(value, ast.Name):
                    param_type = param_types.get(value.id)
                    if param_type is not None:
                        model.attr_types.setdefault(attr, param_type)
    return model


def _collect_function(
    module: SourceModule,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: str | None,
) -> FunctionModel:
    args = node.args
    positional = [arg.arg for arg in [*args.posonlyargs, *args.args]]
    is_method = cls is not None and positional[:1] in (["self"], ["cls"])
    if not is_method:
        for deco in node.decorator_list:
            if dotted_name(deco) in {"classmethod"} and positional[:1] == ["cls"]:
                is_method = True
    if is_method and positional:
        positional = positional[1:]
    kwonly = [arg.arg for arg in args.kwonlyargs]
    scope = f"{cls}.{node.name}" if cls is not None else node.name
    return FunctionModel(
        name=node.name,
        qualname=f"{module.relpath}::{scope}",
        cls=cls,
        module=module,
        node=node,
        params=tuple(positional) + tuple(kwonly),
        positional=tuple(positional),
        kwonly=tuple(kwonly),
        has_varkw=args.kwarg is not None,
        returns=annotation_name(node.returns),
    )


def build_project(modules: list[SourceModule]) -> Project:
    """Collect every class and function model across the analyzed files."""
    project = Project(modules)
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
