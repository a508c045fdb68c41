"""Versioned JSON report payloads.

Numbers carry their arithmetic mode through the JSON type itself: values
computed in floating point serialize as JSON numbers, values computed in
exact rational arithmetic serialize as "p/q" strings.  A report is one line
of JSON, as ``json.dumps`` writes it: keys in insertion order, ASCII
escapes, NaN/Infinity spelled as the json module spells them.  Decoding
inverts both number kinds losslessly, so Report -> JSON -> Report is the
identity for data with string keys, tuples read back as lists, and no
string that is itself the "p/q" text of a Fraction.  The one exception is
the value under the key "out", render's output path: it is free text, so
it stays a string even when it reads "1/2".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple

SCHEMA = "polyclass.report.v1"

#: "p/q" with a non-zero denominator; _decode also asks that the text be
#: exactly what to_json writes for the Fraction it parses to
_FRACTION_RE = re.compile(r"-?\d+/[1-9]\d*")


def _fraction_text(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


#: reports are trees built fresh for each command, so no cycle check
_ENCODER = json.JSONEncoder(default=_fraction_text, check_circular=False)


def _decode(obj):
    if isinstance(obj, str) and _FRACTION_RE.fullmatch(obj):
        value = Fraction(obj)
        return value if _fraction_text(value) == obj else obj
    if isinstance(obj, dict):
        return {k: v if k == "out" else _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


class Report(NamedTuple):
    """Nested payload of plain values, Fractions, lists and dicts."""

    data: dict

    def to_json(self) -> str:
        return _ENCODER.encode(self.data)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(data=_decode(json.loads(text)))


def error_report(command: str, exc: Exception) -> Report:
    return Report(data={
        "schema": SCHEMA,
        "command": command,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    })
