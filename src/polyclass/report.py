"""Versioned JSON report payloads.

Numbers carry their arithmetic mode through the JSON type itself: values
computed in floating point serialize as JSON numbers, values computed in
exact rational arithmetic serialize as "p/q" strings.  Decoding inverts both
losslessly, so Report -> JSON -> Report is the identity.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii

SCHEMA = "polyclass.report.v1"

_FRACTION_RE = re.compile(r"^-?\d+/\d+$")


#: float.__repr__ spellings that JSON writes the way Python's json module does
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dump(obj, nl: str) -> str:
    """JSON text of ``obj``; ``nl`` is a newline plus the current indentation.

    Byte for byte what ``json.dumps(obj, indent=2)`` writes after Fractions
    become "p/q" strings and tuples become lists: insertion key order,
    ASCII escapes, NaN/Infinity spelled as the json module spells them.
    Dict keys must be strings.
    """
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    if isinstance(obj, str):
        return _ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        parts = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(_ascii(key) + ": " + _dump(value, inner))
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_dump(v, inner) for v in obj]) + nl + "]"
    if isinstance(obj, Fraction):
        return f'"{obj.numerator}/{obj.denominator}"'
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _decode(obj):
    if isinstance(obj, str) and _FRACTION_RE.match(obj):
        return Fraction(obj)
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


@dataclass(frozen=True)
class Report:
    """Nested payload of plain values, Fractions, lists and dicts."""

    data: dict

    def to_json(self) -> str:
        return _dump(self.data, "\n")

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(data=_decode(json.loads(text)))


def error_report(command: str, exc: Exception) -> Report:
    return Report(data={
        "schema": SCHEMA,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    })
