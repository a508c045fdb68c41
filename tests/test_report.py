"""Report.to_json writes one line of JSON that re-indents to the old layout.

The reference is the encoder Report.to_json first replaced: Fractions to
"p/q", then ``json.dumps(..., indent=2)``.  Each report re-indented with
``indent=2`` must give its bytes, so no information is lost and
``python -m json.tool --indent 2`` restores the old layout.
"""

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


def _lists(obj):
    """``obj`` as it reads back from JSON: tuples become lists."""
    if isinstance(obj, dict):
        return {k: _lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_lists(v) for v in obj]
    return obj


def assert_matches_reference(report: Report, round_trips: bool = True):
    text = report.to_json()
    assert "\n" not in text
    assert json.dumps(json.loads(text), indent=2) == reference_json(report)
    if round_trips:
        assert Report.from_json(text) == Report(data=_lists(report.data))


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
    assert_matches_reference(report)


@pytest.mark.parametrize("kind, coeffs", [("cubic", ["0", "-1", "0"]),
                                          ("quartic", ["0", "-2", "0", "1"])])
def test_render_report_matches_reference(tmp_path, kind, coeffs):
    _, opts = parse_argv(["render", f"--{kind}", *coeffs,
                          "--out", str(tmp_path / "plot.svg")])
    report, _ = COMMANDS["render"](opts)
    assert_matches_reference(report)


def test_error_report_matches_reference():
    report = error_report("classify", ValueError("coefficient 'a' must be finite, got nan"))
    assert_matches_reference(report)


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
    # NaN != NaN, so the decoded data cannot compare equal to its source
    assert_matches_reference(report, round_trips=False)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(3), 1j])
def test_other_types_raise_type_error(value):
    report = Report(data={"x": [value]})
    with pytest.raises(TypeError):
        reference_json(report)
    with pytest.raises(TypeError):
        report.to_json()


def test_tuple_keys_raise_type_error():
    with pytest.raises(TypeError):
        Report(data={(1, 2): "pair"}).to_json()


def test_int_keys_are_written_as_strings():
    assert Report(data={1: "one"}).to_json() == json.dumps({1: "one"}) == '{"1": "one"}'


@pytest.mark.parametrize("text", ["1/2\n", "-3/0", "2/4", "01/2", "-0/1"])
def test_non_canonical_fraction_text_stays_a_string(text):
    report = Report(data={"note": text})
    assert Report.from_json(report.to_json()) == report


@pytest.mark.parametrize("text, value", [("-7/3", Fraction(-7, 3)), ("0/1", Fraction(0)),
                                         ("3/1", Fraction(3))])
def test_canonical_fraction_text_decodes(text, value):
    data = Report.from_json(json.dumps({"x": text})).data
    assert data == {"x": value} and type(data["x"]) is Fraction


def test_render_out_path_stays_a_string(tmp_path, monkeypatch):
    # the path 1/2 is also the text of Fraction(1, 2)
    (tmp_path / "1").mkdir()
    monkeypatch.chdir(tmp_path)
    _, opts = parse_argv(["render", "--cubic", "0", "-1", "0", "--out", "1/2"])
    report, _ = COMMANDS["render"](opts)
    out = Report.from_json(report.to_json()).data["out"]
    assert out == "1/2" and type(out) is str
