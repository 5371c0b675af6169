"""Typed reading of JSON values: every value relnet reads back (a sweep spec,
a `relnet` flag, a records-CSV cell, a checkpoint's meta, the CIFAR-10
statistics cache) is read into its declared Python type by one rule."""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import FormatError, InvalidValue

# Python type of a spec value: (the JSON values it accepts, their JSON name).
# A float takes a JSON integer; a boolean is never a number, and neither are
# NaN and +-Infinity, which json.load accepts but JSON does not have.
_JSON_OF_TYPE = {str: (str, "string"), int: (int, "integer"), float: ((int, float), "number"),
                 bool: (bool, "boolean"), tuple: (list, "list"), dict: (dict, "object")}


@functools.cache
def field_types(cls) -> dict:
    """The dataclass `cls`'s field types (`typing.get_type_hints`), resolved
    once per class: resolving a class's annotation strings takes 0.1-0.2 ms."""
    return get_type_hints(cls)


def read_json(text: str | bytes, where: str):
    """The JSON value of `text` (a file's bytes, say); text that is not JSON
    (or not UTF-8), or JSON nested too deep to read, raises FormatError
    naming `where`."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise FormatError(f"{where}: not JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{where}: JSON nested too deep to read") from None


def keys_of(where: str):
    """`read_spec`'s `source` for the JSON object `where`: a key's dotted
    path as `where 'path'`, and the object itself ("") as `where`."""
    return lambda name: f"{where} {name!r}" if name else where


def read_spec(cls, d, name: str = "", *, ignore=lambda key: False, source=keys_of("sweep spec")):
    """The dataclass `cls` from the JSON object `d`: each key is a field,
    read as the field's declared type (`_read_value`), and an absent key
    takes the field's default. A missing, unknown or mistyped key raises
    FormatError naming it as `source` of its dotted path (the flag, for
    `relnet gen` and `train`); `name` is the object's path ("" at top level).
    Unknown keys for which `ignore` is true are skipped. An InvalidValue
    that `cls` raises on one of its fields when made is raised again,
    naming the field as `source` of its path."""
    where = source(name)
    if not isinstance(d, dict):
        raise FormatError(f"{where} must be a JSON object, got {d!r}")
    types = field_types(cls)
    unknown = sorted(k for k in d.keys() - types.keys() if not ignore(k))
    if unknown:
        raise FormatError(f"{where} has unknown key {unknown[0]!r}")
    prefix = f"{name}." if name else ""
    values = {}
    for f in fields(cls):
        if f.name in d:
            values[f.name] = _read_value(types[f.name], d[f.name], prefix + f.name, source)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise FormatError(f"{source(prefix + f.name)} is required")
    try:
        return cls(**values)
    except InvalidValue as exc:
        if exc.field not in types:  # a nested spec's, named by its own read
            raise
        raise InvalidValue(source(prefix + exc.field), exc.rule) from None


def _read_value(kind, value, name: str, source):
    """`value` read as the type `kind`: a dataclass (`read_spec`), `X | None`
    (JSON null or an X), `tuple[X, ...]` (a list, each entry read as an X
    under `name`), `dict[str, X]`, a bare `dict` (any object) or a scalar of
    `_JSON_OF_TYPE`."""
    args = get_args(kind)
    if isinstance(kind, UnionType):
        return None if value is None else _read_value(args[0], value, name, source)
    if is_dataclass(kind):
        return read_spec(kind, value, name, source=source)
    json_kind = get_origin(kind) or kind
    accepted, json_name = _JSON_OF_TYPE[json_kind]
    if not (
        isinstance(value, accepted)
        and (json_kind is bool or not isinstance(value, bool))
        # Finite, or for an integer within float range (math.isfinite would raise).
        and (json_kind is not float or abs(value) <= sys.float_info.max)
    ):
        raise FormatError(f"{source(name)} must be a JSON {json_name}, got {value!r}")
    if json_kind is tuple:
        return tuple(_read_value(args[0], v, name, source) for v in value)
    if json_kind is dict:
        if not args:
            return value
        return {k: _read_value(args[1], v, f"{name}.{k}", source) for k, v in value.items()}
    return json_kind(value)


def text_value(text: str, kind):
    """Text (a `relnet` flag's, a records-CSV cell's) as the JSON value that
    `_read_value` reads for the type `kind`: for `str` (or `str | None`) the
    text itself, else its JSON scalar, or the text where it is not JSON."""
    if kind in (str, str | None):
        return text
    try:
        return json.loads(text)
    except (ValueError, RecursionError):  # not JSON, or nested too deep to read
        return text
