"""JSON input files and their config sections, at the boundary where
files enter.  ``read_json`` reads every JSON input the program takes.

``augseg train --config`` and checkpoint manifests both carry config
dataclasses as JSON objects.  ``check_section`` rejects, with an
``InputError`` naming the file and the key, an unknown key or a value
whose JSON type does not match its field; nested dataclass fields, and
tuples of them, are checked in turn.  Ranges are left to each config's
``__post_init__``.
"""

from __future__ import annotations

import json
import types
import typing
from dataclasses import fields, is_dataclass

from .errors import FormatError, InputError


def read_json(path, what):
    """The parsed UTF-8 JSON file at ``path``: ``InputError("{what} not
    found: {path}")`` if it is missing, a ``FormatError`` naming ``path``
    if it is not UTF-8 or not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"{what} not found: {path}") from None
    except ValueError as exc:    # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON ({exc})") from None


def check_keys(path, where, blob, known):
    """Reject a config level that is not an object or has unknown keys."""
    if not isinstance(blob, dict):
        raise InputError(f"{path}: {where} must be a JSON object")
    unknown = sorted(set(blob) - set(known))
    if unknown:
        raise InputError(f"{path}: unknown key {unknown[0]!r} in {where}")


# JSON value types accepted for each config field annotation; a dataclass
# field takes an object, and an int is accepted where a float is expected
_JSON_TYPES = {int: ("integer", int), float: ("number", (int, float)),
               bool: ("boolean", bool), str: ("string", str),
               tuple: ("list", list), dict: ("object", dict),
               type(None): ("null", type(None))}


def _json_types(hint):
    if isinstance(hint, types.UnionType):
        return [t for arg in typing.get_args(hint) for t in _json_types(arg)]
    if is_dataclass(hint):
        return [_JSON_TYPES[dict]]
    return [_JSON_TYPES[typing.get_origin(hint) or hint]]


def check_section(path, section, blob, cls):
    """Reject a config section whose keys are not fields of ``cls`` or
    whose values do not have their field's JSON type."""
    check_keys(path, f"section {section!r}", blob,
               [f.name for f in fields(cls)])
    hints = typing.get_type_hints(cls)
    for key, value in blob.items():
        hint = hints[key]
        names, accepted = zip(*_json_types(hint))
        if not isinstance(value, accepted) or (
                isinstance(value, bool) and bool not in accepted):
            raise InputError(
                f"{path}: {section}.{key} must be a JSON "
                f"{' or '.join(names)}, got {json.dumps(value)}")
        if is_dataclass(hint):
            check_section(path, f"{section}.{key}", value, hint)
        elif typing.get_origin(hint) is tuple:
            entry = typing.get_args(hint)[0]
            for i, item in enumerate(value):
                check_section(path, f"{section}.{key}[{i}]", item, entry)
