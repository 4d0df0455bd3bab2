"""LOCK001 + LOCK003: guarded-field discipline and blocking-under-lock.

Held locks are tracked *lexically*: entering ``with self.<lock>:`` adds the
lock (canonicalized through ``Condition(base)`` aliases) for the duration of
the block, and nested ``def``/``lambda`` bodies inherit the enclosing held
set.  That inheritance is deliberate — the serving layer's only nested
callables under a lock (e.g. the ``wait_for`` predicate in
``NavigationServer.drain``) really do run with the lock held.

* LOCK001 — a field annotated ``# guarded-by: <lock>`` is read or written
  via ``self.<field>`` while the lock is not held.  ``__init__`` is exempt
  (the object is not yet shared).  Helpers documented ``# holds: <lock>``
  start with that lock considered held.
* LOCK003 — a call that can block for unbounded or external time happens
  while *any* lock is held: ``time.sleep``, ``.wait()``/``.wait_for()``/
  ``.result()`` without a timeout, subprocess/socket/HTTP calls, or
  profiling execution (``profile``/``profile_one``, the Step-2 loop
  ``_execute`` and what it trains with: ``profile_class`` inline).
"""

from __future__ import annotations

import ast

from .core import ClassModel, Collector, Project, dotted_name

__all__ = ["check_locks"]

#: dotted-name prefixes that mean "this call leaves the process / sleeps".
_BLOCKING_PREFIXES = (
    "time.sleep",
    "subprocess.",
    "socket.",
    "requests.",
    "urllib.request.",
    "http.client.",
)

#: simple callee names that run profiling workloads (seconds, not micros).
_PROFILING_CALLEES = {
    "profile",
    "profile_one",
    "profile_class",
    "_execute",
}


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _call_blocking_reason(call: ast.Call) -> str | None:
    """Why this call counts as blocking, or ``None`` if it does not."""
    dotted = dotted_name(call.func)
    if dotted is not None:
        for prefix in _BLOCKING_PREFIXES:
            if dotted == prefix or dotted.startswith(prefix):
                return f"'{dotted}'"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr in ("wait", "result"):
            has_timeout = bool(call.args) or any(
                kw.arg == "timeout" for kw in call.keywords
            )
            if not has_timeout:
                return f"'.{attr}()' without a timeout"
            return None
        if attr == "wait_for":
            has_timeout = len(call.args) >= 2 or any(
                kw.arg == "timeout" for kw in call.keywords
            )
            if not has_timeout:
                return "'.wait_for()' without a timeout"
            return None
        if attr in _PROFILING_CALLEES:
            return f"profiling call '.{attr}()'"
    elif isinstance(call.func, ast.Name) and call.func.id in _PROFILING_CALLEES:
        return f"profiling call '{call.func.id}()'"
    return None


class _LockWalker:
    """Walks one method body tracking the canonical held-lock set."""

    def __init__(
        self,
        cls: ClassModel,
        method: str,
        collector: Collector,
        check_guards: bool,
    ) -> None:
        self.cls = cls
        self.method = method
        self.collector = collector
        self.check_guards = check_guards

    def walk(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                self.walk(item.context_expr, held)
                if item.optional_vars is not None:
                    self.walk(item.optional_vars, held)
                attr = _self_attr(item.context_expr)
                if attr is not None and attr in self.cls.locks:
                    acquired.add(self.cls.canonical_lock(attr))
            inner = held | acquired
            for stmt in node.body:
                self.walk(stmt, inner)
            return
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None:
                self._check_guarded(node, attr, held)
        elif isinstance(node, ast.Call) and held:
            reason = _call_blocking_reason(node)
            if reason is not None:
                locks = ", ".join(
                    sorted(f"{self.cls.name}.{name}" for name in held)
                )
                self.collector.emit(
                    self.cls.module,
                    node.lineno,
                    "LOCK003",
                    f"blocking call {reason} in "
                    f"{self.cls.name}.{self.method}() while holding {locks}",
                )
        for child in ast.iter_child_nodes(node):
            self.walk(child, held)

    def _check_guarded(
        self, node: ast.Attribute, attr: str, held: frozenset[str]
    ) -> None:
        if not self.check_guards:
            return
        guards = self.cls.guarded_fields.get(attr)
        if guards is None:
            return
        required = self.cls.expand_held(guards)
        if required <= held:
            return
        missing = ", ".join(sorted(f"'{name}'" for name in required - held))
        self.collector.emit(
            self.cls.module,
            node.lineno,
            "LOCK001",
            f"field '{self.cls.name}.{attr}' is guarded by {missing} but "
            f"{self.cls.name}.{self.method}() accesses it without holding "
            "the lock",
        )


def check_locks(project: Project, collector: Collector) -> None:
    for models in project.classes.values():
        for cls in models:
            if not cls.locks and not cls.guarded_fields:
                continue
            for name, method in cls.methods.items():
                held = cls.expand_held(cls.holds_methods.get(name, ()))
                walker = _LockWalker(
                    cls,
                    name,
                    collector,
                    # __init__ builds the object before it is shared, so
                    # guarded-field discipline does not apply there yet.
                    check_guards=name != "__init__",
                )
                for stmt in method.body:
                    walker.walk(stmt, held)
