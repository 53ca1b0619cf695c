"""One record codec for the dataclasses that artifacts store.

``to_record`` turns a dataclass into the dict that ``jsonl`` writes and
``from_record`` builds it back. The field types say what to convert: a
nested dataclass becomes a dict, a tuple a list, a set a sorted list, and an
``Optional`` of these keeps ``None``; every other value is stored as it is.
A key missing from a record takes the field's default, and keys the class
does not know (a graph record's ``kind``) are ignored.

Each class's pair of functions is generated once from its fields and type
hints and cached, the way ``dataclasses`` generates ``__init__``, so a
record costs what a hand-written converter would."""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache


def to_record(obj) -> dict:
    return _codec(type(obj))[0](obj)


def from_record(cls, record: dict):
    return _codec(cls)[1](record)


@cache
def _codec(cls) -> tuple:
    """(encode, decode) for one dataclass."""
    hints = typing.get_type_hints(cls)
    namespace = {"cls": cls}
    items, arguments = [], []
    for i, field in enumerate(dataclasses.fields(cls)):
        name = field.name
        encode, decode = _converters(hints[name])
        namespace[f"encode{i}"], namespace[f"decode{i}"] = encode, decode
        items.append(f"{name!r}: obj.{name}" if encode is None else f"{name!r}: encode{i}(obj.{name})")
        value = f"record[{name!r}]" if decode is None else f"decode{i}(record[{name!r}])"
        if field.default is not dataclasses.MISSING:
            namespace[f"default{i}"] = field.default
            value = f"{value} if {name!r} in record else default{i}"
        elif field.default_factory is not dataclasses.MISSING:
            namespace[f"default{i}"] = field.default_factory
            value = f"{value} if {name!r} in record else default{i}()"
        arguments.append(f"{name}=({value})")
    source = (
        f"def encode(obj): return {{{', '.join(items)}}}\n"
        f"def decode(record): return cls({', '.join(arguments)})"
    )
    exec(source, namespace)  # field names are identifiers from the class body
    return namespace["encode"], namespace["decode"]


def _converters(tp) -> tuple:
    """(encode, decode) for one field type; None where the JSON form is the value."""
    if dataclasses.is_dataclass(tp):
        return _codec(tp)
    origin = typing.get_origin(tp)
    if origin is tuple:
        return list, tuple
    if origin is set:
        return sorted, set
    if origin in (typing.Union, types.UnionType):
        args = [arg for arg in typing.get_args(tp) if arg is not type(None)]
        if len(args) == 1:
            encode, decode = _converters(args[0])
            if encode is not None:
                return (
                    lambda value: None if value is None else encode(value),
                    lambda value: None if value is None else decode(value),
                )
    return None, None
