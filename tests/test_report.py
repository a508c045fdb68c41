"""Report.to_json writes the bytes of the json module's indent=2 encoder."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from polyclass.cli import COMMANDS, parse_argv
from polyclass.report import SCHEMA, Report, error_report


def _encode(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def reference_json(report: Report) -> str:
    """The encoder Report.to_json replaced: Fractions to "p/q", then json.dumps."""
    return json.dumps(_encode(report.data), indent=2)


COMMAND_LINES = [
    "classify --quartic 3 2 -1 -0.95",
    "classify --quartic -4 5 -1.75 -0.2",
    "classify --quartic 0 -6 8 -3",
    "classify --quartic 3 2 -1 -19/20 --exact",
    "classify --quartic 4 6 4 1 --exact",
    "classify --quartic 1.3 -2.1 0.7 -0.4 --oracle-check",
    "classify --cubic 0 -1 0",
    "classify --cubic 1 1 1",
    "classify --cubic 0 -3 2 --exact",
    "classify --cubic 0 -1 0 --oracle-check",
    "localize --quartic -4 5 -1.75 -0.2",
    "synthesize --nature double-pair --a 2 --position lowest",
    "synthesize --nature triple-plus-single --a 3 --exact",
    "quintic --coeffs 0 0 0 1 0",
    "quintic --coeffs 0 0 0 0 0",
    "selftest",
]


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_command_reports_match_reference(line):
    command, opts = parse_argv(line.split())
    report, _ = COMMANDS[command](opts)
    assert report.to_json() == reference_json(report)


@pytest.mark.parametrize("kind, coeffs", [("cubic", ["0", "-1", "0"]),
                                          ("quartic", ["0", "-2", "0", "1"])])
def test_render_report_matches_reference(tmp_path, kind, coeffs):
    _, opts = parse_argv(["render", f"--{kind}", *coeffs,
                          "--out", str(tmp_path / "plot.svg")])
    report, _ = COMMANDS["render"](opts)
    assert report.to_json() == reference_json(report)


def test_error_report_matches_reference():
    report = error_report("classify", ValueError("coefficient 'a' must be finite, got nan"))
    assert report.to_json() == reference_json(report)


def test_edge_values_match_reference():
    report = Report(data={
        "schema": SCHEMA,
        "empty_dict": {},
        "empty_list": [],
        "tuple": (1, -2.5, "x", ()),
        "none": None,
        "bools": [True, False],
        "inf": math.inf,
        "-inf": -math.inf,
        "nan": math.nan,
        "np_float64": np.float64(0.1),
        "fraction": Fraction(-7, 3),
        "text": "café über 中 \U0001f600 \"quoted\" \\ \n\t\x01",
        "nested": [[], {}, [{"k": (Fraction(1, 2), 1e-300, -0.0, 10**20)}]],
    })
    assert report.to_json() == reference_json(report)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), 1j])
def test_other_types_raise_type_error(value):
    report = Report(data={"x": [value]})
    with pytest.raises(TypeError):
        reference_json(report)
    with pytest.raises(TypeError):
        report.to_json()


def test_non_string_keys_raise_type_error():
    with pytest.raises(TypeError):
        Report(data={1: "one"}).to_json()
