"""WIRE001/002/003: dataclasses must round-trip through their wire forms.

The serving types (``to_dict``/``from_dict``) and the two submit messages
of the ``/v1`` transport that override its field-driven codec
(``to_wire``/``from_wire``) keep a JSON encoding in sync by hand.  The
classic drift bug is adding a field to the dataclass and only one side of
the codec; the payload then silently drops or resets the field.  For every
*dataclass* that defines both a to-method and a from-method:

* WIRE001 — a declared field is never serialized: the to-method neither
  reads ``self.<field>`` nor defers to ``asdict``/``fields`` generically;
* WIRE002 — a declared field is never parsed: the from-method neither
  passes it to ``cls(...)`` nor constructs via ``cls(**payload)``;
* WIRE003 — key symmetry: a literal key written by the to-method must be
  *mentioned* by the from-method and vice versa.  The mention check uses
  every string constant in the opposing method, so dynamic loops like
  ``for key in ("arch", "hops"):`` count as coverage; ``protocol`` is
  exempt (version stamps are written, not read back into the object).

A method that uses the generic form (``asdict(self)``, ``fields(self)``,
``cls(**payload)``) covers every field by construction, and key symmetry
is skipped when either side is generic.
"""

from __future__ import annotations

import ast

from .core import ClassModel, Collector, Project, dotted_name

__all__ = ["check_wire"]

_TO_METHODS = ("to_wire", "to_dict")
_FROM_METHODS = ("from_wire", "from_dict")
_GENERIC_HELPERS = {"asdict", "fields", "astuple"}
#: keys a to-method may stamp without the from-method reading them back.
_KEY_WHITELIST = {"protocol"}


def _is_generic_to(method: ast.AST) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if (
                name is not None
                and name.rsplit(".", maxsplit=1)[-1] in _GENERIC_HELPERS
            ):
                return True
    return False


def _is_generic_from(method: ast.AST, cls_name: str) -> bool:
    for node in ast.walk(method):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("cls", cls_name):
                if any(kw.arg is None for kw in node.keywords):
                    return True
    return False


def _self_reads(method: ast.AST) -> set[str]:
    reads: set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            reads.add(node.attr)
    return reads


def _ctor_fields(method: ast.AST, cls: ClassModel) -> set[str]:
    covered: set[str] = set()
    for node in ast.walk(method):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Name) and func.id in ("cls", cls.name)
        ):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                covered.add(kw.arg)
        for index, _ in enumerate(node.args):
            if index < len(cls.dataclass_fields):
                covered.add(cls.dataclass_fields[index])
    return covered


def _written_keys(method: ast.AST) -> set[str]:
    """Literal wire keys the to-method produces: dict-literal keys plus
    ``out["key"] = ...`` subscript stores."""
    keys: set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keys.add(key.value)
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
    return keys


def _read_keys(method: ast.AST) -> set[str]:
    """Literal wire keys the from-method consumes: ``payload["key"]``,
    ``payload.get("key")`` and ``"key" in payload`` membership tests."""
    keys: set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            if isinstance(node.left, ast.Constant) and isinstance(
                node.left.value, str
            ):
                keys.add(node.left.value)
    return keys


def _mentioned_strings(method: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(method)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def check_wire(project: Project, collector: Collector) -> None:
    for models in project.classes.values():
        for cls in models:
            if not cls.is_dataclass or not cls.dataclass_fields:
                continue
            to_name = next(
                (name for name in _TO_METHODS if name in cls.methods), None
            )
            from_name = next(
                (name for name in _FROM_METHODS if name in cls.methods), None
            )
            if to_name is None or from_name is None:
                continue
            _check_pair(collector, cls, to_name, from_name)


def _check_pair(
    collector: Collector, cls: ClassModel, to_name: str, from_name: str
) -> None:
    to_method = cls.methods[to_name]
    from_method = cls.methods[from_name]
    generic_to = _is_generic_to(to_method)
    generic_from = _is_generic_from(from_method, cls.name)

    if not generic_to:
        serialized = _self_reads(to_method)
        for name in cls.dataclass_fields:
            if name not in serialized:
                collector.emit(
                    cls.module,
                    to_method.lineno,
                    "WIRE001",
                    f"field '{cls.name}.{name}' is never serialized by "
                    f"{to_name}()",
                )
    if not generic_from:
        parsed = _ctor_fields(from_method, cls)
        for name in cls.dataclass_fields:
            if name not in parsed:
                collector.emit(
                    cls.module,
                    from_method.lineno,
                    "WIRE002",
                    f"field '{cls.name}.{name}' is never parsed by "
                    f"{from_name}()",
                )
    if generic_to or generic_from:
        return
    written = _written_keys(to_method) - _KEY_WHITELIST
    read = _read_keys(from_method) - _KEY_WHITELIST
    from_mentions = _mentioned_strings(from_method)
    to_mentions = _mentioned_strings(to_method)
    for key in sorted(written - from_mentions):
        collector.emit(
            cls.module,
            to_method.lineno,
            "WIRE003",
            f"wire key '{key}' is written by {cls.name}.{to_name}() but "
            f"never read by {from_name}()",
        )
    for key in sorted(read - to_mentions):
        collector.emit(
            cls.module,
            from_method.lineno,
            "WIRE003",
            f"wire key '{key}' is read by {cls.name}.{from_name}() but "
            f"never written by {to_name}()",
        )
