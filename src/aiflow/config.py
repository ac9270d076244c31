"""Config documents: JSON loading and the typed field reader.

Every config object, in every subcommand, scenario and topology, is read
once, by read_fields, which rejects a key its table does not list and
names the offending field by its path.
"""

from __future__ import annotations

import json

from .errors import ConfigError, InvalidScenarioError, IoError

REQUIRED = object()
_KIND_NAMES = {int: "int", float: "number", str: "string", dict: "object", list: "list"}


def load_config(path) -> dict:
    """The JSON object in the UTF-8 file at path."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    try:  # a byte outside UTF-8 or an int past str's digit limit is a ValueError
        doc = json.loads(str(data, "utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _typed(value, kind):
    """value as kind (a type, or [type] for a list of it); TypeError if not one."""
    if isinstance(kind, list) and isinstance(value, list):
        return [_typed(v, kind[0]) for v in value]
    if isinstance(kind, list) or isinstance(value, bool):
        raise TypeError
    if isinstance(value, kind) or (kind is float and isinstance(value, int)):
        return kind(value)
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError


def read_fields(doc, fields: dict, where: str) -> dict:
    """Typed values of doc's fields; fields maps name -> (kind, default).

    kind is int, float, str, dict or list, or [kind] for a list of that
    kind. As in JSON Schema, an integral float is an int and a bool is not
    a number. A missing field takes its default unless that is REQUIRED.
    Raises InvalidScenarioError naming the field, prefixed by where; keys
    of doc outside fields are rejected first, all named at once.
    """
    if not isinstance(doc, dict):
        raise InvalidScenarioError(f"{where} must be an object, not {doc!r}")
    unknown = set(doc) - set(fields)
    if unknown:
        raise InvalidScenarioError(f"{where} has unknown fields: {sorted(unknown)}")
    out = {}
    for name, (kind, default) in fields.items():
        if name not in doc and default is REQUIRED:
            raise InvalidScenarioError(f"{where} is missing field '{name}'")
        try:
            out[name] = _typed(doc[name], kind) if name in doc else default
        except (TypeError, OverflowError):  # float() of a huge int overflows
            what = (f"list of {_KIND_NAMES[kind[0]]}" if isinstance(kind, list)
                    else _KIND_NAMES[kind])
            raise InvalidScenarioError(
                f"{where}.{name} must be {what}, not {doc[name]!r}"
            ) from None
    return out

