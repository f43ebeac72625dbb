"""One reader for every config format: `read` checks a spec against a field
table and returns a copy with the defaults filled in.  An entry is the
field's default, which is also its type (an int takes integers, a float
finite numbers, a tuple a non-empty list of numbers), a bare type for a
required field, a nested table (default {}), a required `Format`, `[entry]`
for a list, or a `Field`.  Keys a table does not list are ignored."""

from __future__ import annotations

import math
from collections import namedtuple


class ScenarioError(ValueError):
    """Configuration or assembly problem; maps to exit code 2."""


def is_int(value) -> bool:
    """An int from a config (a bool does not count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A finite int or float from a config (a bool does not count)."""
    return (is_int(value) or isinstance(value, float)) and math.isfinite(value)


_TYPES = {bool: (lambda v: isinstance(v, bool), "true or false"),
          int: (is_int, "an integer"), float: (is_number, "a number"),
          str: (lambda v: isinstance(v, str), "a string"),
          # NaN and inf pass: the builders refuse them with their own messages
          tuple: (lambda v: isinstance(v, (list, tuple)) and len(v) > 0
                  and all(is_int(x) or isinstance(x, float) for x in v),
                  "a list of numbers")}


# A nested object whose field `key` picks one of `tables`; `default`, or a
# function of the spec giving it, stands in for a missing key, and `what`
# names the key in messages ("map form").
Format = namedtuple("Format", "key default what tables")
# A field of type `kind` that defaults to `default`, also takes null when
# that is null and the strings in `also`, and numbers from `least` up.
Field = namedtuple("Field", "kind default also least",
                   defaults=(None, (), None))


def read(spec, table, path: str = "") -> dict:
    """`spec` checked against `table`, as a copy with the defaults filled
    in; `path` names the spec in messages."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path} must be an object, got {spec!r}")
    at = path + "." if path else ""
    if isinstance(table, Format):
        tag = spec[table.key] if table.key in spec else table.default
        tag = tag(spec) if callable(tag) else tag
        try:
            if not (isinstance(tag, str) and tag in table.tables):
                raise ScenarioError(f"unknown {table.what} {tag!r}")
            return {**read(spec, table.tables[tag], path), table.key: tag}
        except ScenarioError as exc:
            if not path:
                raise
            raise ScenarioError(f"malformed {table.what.split()[0]} "
                                f"{spec!r}: {exc}") from None
    out = dict(spec)
    for key, entry in table.items():
        if key in spec:
            out[key] = _value(spec[key], entry, at + key)
        elif isinstance(entry, (type, Format, list)):
            raise ScenarioError(f"missing field {at + key!r}")
        else:
            out[key] = (read({}, entry, at + key) if isinstance(entry, dict)
                        else entry.default if isinstance(entry, Field)
                        else entry)
    return out


def _value(value, entry, where: str):
    if isinstance(entry, (dict, Format)):
        return read(value, entry, where)
    if isinstance(entry, list):
        if not isinstance(value, list):
            raise ScenarioError(f"{where} must be a list, got {value!r}")
        return [_value(v, entry[0], f"{where}[{i}]")
                for i, v in enumerate(value)]
    kind, default, also, least = (
        entry if isinstance(entry, Field) else (entry, entry, (), None))
    if (value is None and default is None) or value in also:
        return value
    if isinstance(kind, (dict, Format, list)):
        return _value(value, kind, where)
    test, wanted = _TYPES[kind if isinstance(kind, type) else type(kind)]
    if test(value) and (least is None or value >= least):
        return value
    wanted = " or ".join([wanted + ("" if least is None else f" >= {least}"),
                          *map(repr, also)] + ["null"] * (default is None))
    raise ScenarioError(f"{where} must be {wanted}, got {value!r}")
