"""The one reader and writer of data JSON and CSV files, and the record codec.

A data JSON file holds one object, written with sorted keys, a 2-space
indent, a final newline and no NaN or infinity (a missing value is None);
``read_json`` raises ValueError for malformed JSON or any other top-level
value.  ``read_record`` reads and decodes a record file; it is the one place
that puts the path on such an error, once, as ``<path>: <what>``.  A data
CSV is a header row and then one row per record; a None or NaN cell is
written empty, any other cell the way ``csv`` writes it (``repr`` for a
float).  ``write_records`` writes dataclass records
as a data CSV with one column per field in declared order, except that a
field annotated as a tuple (a ``(low, high)`` pair, ``None`` allowed) is the
two columns ``<field>_low`` and ``<field>_high``, and a None pair is two
empty cells; the header comes from the annotations alone, not the records.

``encode`` turns a dataclass into a JSON-ready dict, field by field;
``decode`` is its inverse and converts each value by its field's type
annotation, an ``int`` dict key from the decimal string JSON holds.
Anything that does not fit -- an unknown key, a missing key, a value of the
wrong type, a number no finite float holds -- raises ValueError naming the
dotted key, with ``key[i]`` for element ``i`` of a list.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import types
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints


def read_json(path) -> dict:
    """The JSON object in the file at ``path``; anything else raises ValueError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"must hold a JSON object, got {type(payload).__name__}")
    return payload


def read_record(cls, path):
    """Dataclass ``cls`` decoded from the JSON file at ``path``; any ValueError
    is raised again as ``<path>: <what>``."""
    try:
        return decode(cls, read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_json(path, payload: dict) -> Path:
    """Write ``payload`` to ``path`` as a data JSON file; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                 encoding="utf-8")
    return p


def write_csv(path, header, rows) -> Path:
    """Write ``header`` and then ``rows`` to ``path`` as a data CSV; returns the path."""
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([None if isinstance(v, float) and math.isnan(v) else v for v in row]
                         for row in rows)
    return p


def write_records(path, cls, records) -> Path:
    """Write ``records`` of dataclass ``cls`` to ``path`` as a data CSV, one
    column per field and two per tuple field; returns the path."""
    hints = get_type_hints(cls)
    pairs = [(f.name, get_origin(_unwrap_optional(hints[f.name])) is tuple)
             for f in fields(cls)]
    header = [col for name, pair in pairs
              for col in ((f"{name}_low", f"{name}_high") if pair else (name,))]
    rows = [[v for name, pair in pairs
             for v in ((getattr(r, name) or (None, None)) if pair else (getattr(r, name),))]
            for r in records]
    return write_csv(path, header, rows)


def encode(obj) -> dict:
    """JSON-ready dict of a dataclass, field by field, nested and listed records included."""
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _encode(value):
    if is_dataclass(value):
        return encode(value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def decode(cls, d, key: str = ""):
    """Dataclass ``cls`` from a JSON dict; inverse of :func:`encode`.

    ``key`` is the dotted key of ``d`` itself; a whole record (empty key)
    is named after its class, e.g. "trial config" for ``TrialConfig``.
    """
    what = key or re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    bad = set(d) - {f.name for f in fields(cls)}
    if bad:
        raise ValueError(f"unknown {what} keys: {sorted(bad)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{what} is missing keys: {sorted(missing)}")
    hints = get_type_hints(cls)
    return cls(**{name: _decode(hints[name], value, f"{key}.{name}" if key else name)
                  for name, value in d.items()})


def _decode(tp, value, key: str):
    if is_dataclass(tp):
        return decode(tp, value, key)
    origin, args = get_origin(tp) or tp, get_args(tp)
    if origin in (Union, types.UnionType):
        return None if value is None else _decode(_unwrap_optional(tp), value, key)
    if origin is tuple:
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            raise ValueError(f"{key} must be a list of {len(args)} numbers, got {value!r}")
        return tuple(_decode(t, v, key) for t, v in zip(args, value))
    if origin is list:
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list, got {type(value).__name__}")
        return [_decode(args[0], v, f"{key}[{i}]") for i, v in enumerate(value)]
    if origin is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{key} must be a JSON object, got {value!r}")
        if args[0] is int:  # a JSON object key is a string
            for k in value:
                if not re.fullmatch(r"-?[0-9]+", str(k)):
                    raise ValueError(f"{key} keys must be decimal integers, got {k!r}")
            value = {int(k): v for k, v in value.items()}
        return {_decode(args[0], k, key): _decode(args[1], v, f"{key}.{k}")
                for k, v in value.items()}
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{key} must be {tp.__name__}, got {value!r}")
    # an exact comparison: NaN, inf and an int beyond the float range all fail it
    if tp is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return tp(value)


def _unwrap_optional(tp):
    """``X`` of an ``X | None`` annotation, the only union a record holds."""
    if get_origin(tp) in (Union, types.UnionType):
        (tp,) = (t for t in get_args(tp) if t is not type(None))
    return tp
