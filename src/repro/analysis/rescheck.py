"""RES001: thread, process and executor-pool lifecycle discipline.

A thread that is neither ``daemon=True`` nor ever joined outlives every
shutdown path and hangs interpreter exit; a process nobody joins is never
reaped; a process/thread pool without a ``shutdown()`` (or
``with``-block) leaks workers.  The serving layer starts threads — server
workers, executor heartbeat/work loops, the fleet lease sweeper — and the
profiling service its local worker processes, so the invariant is
machine-checked:

* every ``threading.Thread(...)`` construction must either pass
  ``daemon=True`` or have join evidence — a ``.join(`` call in the same
  function or (for ``self.<attr>`` storage) anywhere in the same class;
* every ``Process(...)`` construction (``multiprocessing`` or a context's)
  must have join evidence, ``daemon=True`` or not;
* every ``ThreadPoolExecutor`` / ``ProcessPoolExecutor`` construction
  must be used as a context manager or have a ``.shutdown(`` call in
  the same function or class.

Evidence matching is name-blind on purpose (any ``.join(`` in scope
counts): the check aims at "a lifecycle path exists", not exact
data-flow — best-effort, biased against false positives.
"""

from __future__ import annotations

import ast

from .core import ClassModel, Collector, Project, dotted_name

__all__ = ["check_resources"]

_POOLS = ("ThreadPoolExecutor", "ProcessPoolExecutor")


def _calls_attr(tree: ast.AST, attr: str) -> bool:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
        ):
            return True
    return False


def _class_evidence(cls: ClassModel | None, attr: str) -> bool:
    if cls is None:
        return False
    return any(_calls_attr(m, attr) for m in cls.methods.values())


def _with_wrapped(tree: ast.AST) -> set[int]:
    """ids of Call nodes used directly as ``with`` context expressions."""
    wrapped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    wrapped.add(id(item.context_expr))
    return wrapped


def _keyword_true(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if (
            kw.arg == name
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
        ):
            return True
    return False


def check_resources(project: Project, collector: Collector) -> None:
    for models in project.functions.values():
        for func in models:
            cls = project.class_named(func.cls)
            wrapped = _with_wrapped(func.node)
            scope = func.qualname.split("::")[-1]
            for node in ast.walk(func.node):
                name = dotted_name(node.func) if isinstance(node, ast.Call) else None
                simple = (name or "").rsplit(".", maxsplit=1)[-1]
                if name in ("Thread", "threading.Thread"):
                    if _keyword_true(node, "daemon"):
                        continue
                    evidence = "join"
                    message = (
                        f"thread created in {scope} without daemon=True and "
                        f"with no join() in scope — it outlives every shutdown path"
                    )
                elif simple == "Process":
                    evidence = "join"
                    message = (
                        f"process created in {scope} with no join() in scope — "
                        f"it is never reaped"
                    )
                elif simple in _POOLS and id(node) not in wrapped:
                    evidence = "shutdown"
                    message = (
                        f"{simple} created in {scope} without a shutdown path "
                        f"(no `with` block and no .shutdown() in scope) — "
                        f"worker processes/threads leak"
                    )
                else:
                    continue
                if not _calls_attr(func.node, evidence) and not _class_evidence(
                    cls, evidence
                ):
                    collector.emit(func.module, node.lineno, "RES001", message)
