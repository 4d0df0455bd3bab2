"""The one JSON codec: a dataclass's fields *are* its wire form.

Whatever crosses a boundary — a store file, the fleet, HTTP — is a dataclass,
and both directions are read off ``dataclasses.fields`` and the annotations
by the rules ``docs/ARCHITECTURE.md`` states (*The wire, declared once*).
Decoding raises :class:`~repro.errors.ProtocolError`.  Imports nothing above
``repro.errors``, so every layer can use it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing

from repro.errors import ProtocolError

__all__ = ["PROTOCOL_VERSION", "IDEMPOTENCY_HEADER", "WireMessage", "decode", "encode"]

#: wire-format version: in the URL namespace (``/v1``) and in every message.
PROTOCOL_VERSION = 1
#: retry dedup key of a submit or a commit; scoped per tenant server-side.
IDEMPOTENCY_HEADER = "X-Repro-Idempotency-Key"


def _codec(hint, where: str) -> tuple:
    """``(decode, encode)`` of one annotation: ``decode`` type-checks a JSON
    value (naming ``where``) and rebuilds the annotated one; ``encode`` is
    ``None`` when the value crosses as it is."""
    optional = typing.get_origin(hint) in (types.UnionType, typing.Union)
    if optional:  # T | None: null passes, anything else is a T
        (hint,) = (arm for arm in typing.get_args(hint) if arm is not type(None))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    kind, build, enc = origin or hint, None, None  # scalars, bare list / dict
    if dataclasses.is_dataclass(hint):  # a JSON object
        kind, build, enc = dict, functools.partial(decode, hint), encode
    elif isinstance(hint, type) and issubclass(hint, enum.Enum):  # its value
        kind, build, enc = str, hint, lambda member: member.value
    elif origin is dict and args:  # dict[str, T]
        item, each = _codec(args[1], where + "{}")
        build = lambda v: {key: item(x) for key, x in v.items()}  # noqa: E731
        enc = each and (lambda v: {key: each(x) for key, x in v.items()})
    elif origin in (list, tuple) and args:  # list[T], tuple[T, ...]: a JSON list
        item, each = _codec(args[0], where + "[]")
        kind, build = list, lambda v: origin(map(item, v))
        enc = list if origin is tuple else None
        enc = (lambda v: [each(x) for x in v]) if each else enc
    # exact types: a bool never passes for an int; JSON writes 2.0 as 2
    kinds = {kind, int} if kind is float else {kind}
    kinds |= {type(None)} if optional else set()
    admitted = " | ".join(sorted(k.__name__ for k in kinds))

    def dec(value):
        if type(value) not in kinds:
            got = type(value).__name__
            raise ProtocolError(f"{where} must be {admitted}, got {got}")
        try:
            return value if build is None or value is None else build(value)
        except ValueError as exc:  # not a member of the enum
            raise ProtocolError(f"{where}: {exc}") from None

    return dec, enc


@functools.cache
def _fields(cls) -> tuple:
    """``(name, decode, encode, required, omit_when_none)`` per crossing field."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            *_codec(hints[f.name], f"{cls.__name__}.{f.name}"),
            f.default is f.default_factory is dataclasses.MISSING,
            f.default is None and issubclass(cls, WireMessage),
        )
        for f in dataclasses.fields(cls)
        if f.compare and f.metadata.get("wire", True)  # else: stays on its side
    )


def encode(obj) -> dict:
    """The JSON-ready mapping of one dataclass instance."""
    out = {}
    for name, _, enc, _, omit_when_none in _fields(type(obj)):
        value = getattr(obj, name)
        if value is not None or not omit_when_none:
            out[name] = value if enc is None or value is None else enc(value)
    return out


def decode(cls, payload):
    """One ``cls`` rebuilt from its JSON object."""
    if type(payload) is not dict:
        raise ProtocolError(f"{cls.__name__} must be a JSON object")
    kwargs = {}
    for name, dec, _, required, _ in _fields(cls):
        if name in payload:
            kwargs[name] = dec(payload[name])
        elif required:
            raise ProtocolError(f"{cls.__name__} carries no {name!r}")
    return cls(**kwargs)


class WireMessage:
    """Base of every dataclass that is a whole request or response body:
    ``protocol`` is stamped on encode and checked on decode (missing = current)
    and a field whose default is ``None`` is left out while it is ``None``
    (domain objects nested in a message send every field).  Value checks live
    in ``__post_init__`` and raise :class:`ProtocolError`, so they hold for a
    message built locally as much as for one decoded off the socket."""

    def to_wire(self) -> dict:
        return {"protocol": PROTOCOL_VERSION, **encode(self)}

    @classmethod
    def from_wire(cls, payload: dict, headers=None):
        """Decode one body; ``headers`` (any ``.get`` mapping of the HTTP
        ones) supplies ``idempotency_key`` when the body has none."""
        if not isinstance(payload, dict):
            raise ProtocolError(f"{cls.__name__} must be a JSON object")
        theirs = payload.get("protocol", PROTOCOL_VERSION)
        if theirs != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: {theirs!r}, not {PROTOCOL_VERSION}"
            )
        key = headers.get(IDEMPOTENCY_HEADER) if headers else None
        body = payload if key is None else {"idempotency_key": key, **payload}
        return decode(cls, body)
