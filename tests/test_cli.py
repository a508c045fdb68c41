"""CLI surface: parsing, exit codes, JSON schema, SVG and selftest determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polyclass.cli import CliError, _mode, main, parse_argv
from polyclass.numeric import DEFAULT_TOL, Tolerance
from polyclass.report import SCHEMA, Report

from conftest import assert_roots_agree, near_double_cubic_coeffs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_negative_numbers_and_fractions(self):
        cmd, opts = parse_argv(
            ["classify", "--quartic", "3", "2", "-1", "-19/20", "--exact"])
        assert cmd == "classify"
        assert opts["quartic"] == ["3", "2", "-1", "-19/20"]
        assert opts["exact"] is True

    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--quintic", "1")
        assert code == 1 and "unknown argument" in err

    def test_missing_values(self, capsys):
        code, _, err = run(capsys, "classify", "--quartic", "1", "2")
        assert code == 1

    def test_help(self, capsys):
        code, _, err = run(capsys, "--help")
        assert code == 1 and "usage" in err

    @pytest.mark.parametrize("argv, flag, count", [
        (["--cubic", "1", "2", "--json"], "--cubic", 3),
        (["--quartic", "3", "2", "--exact", "-1"], "--quartic", 4),
        (["--tol", "--json"], "--tol", 1),
        (["--cubic", "1", "--tol", "1e-6", "2"], "--cubic", 3),
    ])
    def test_a_flag_is_not_a_value(self, argv, flag, count):
        with pytest.raises(CliError, match=f"flag {flag} expects {count} value"):
            parse_argv(["classify", *argv])

    def test_a_short_value_list_before_json_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "classify", "--cubic", "1", "2", "--json")
        assert code == 1 and out == ""
        assert "expects 3 value(s)" in err

    def test_default_tolerance_is_shared(self):
        assert _mode({})[1] is DEFAULT_TOL
        assert _mode({"tol": "1e-9"})[1] is DEFAULT_TOL
        exact, tol = _mode({"tol": "1e-6", "exact": True})
        assert exact and tol == Tolerance(1e-6)


class TestClassifyCommand:
    def test_worked_example_json(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-0.95",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == SCHEMA
        assert data["classification"]["case"] == "xvii"
        assert data["classification"]["nature"] == "four_distinct_real"
        values = sorted(r["value"] for r in data["roots"])
        assert values == pytest.approx([-1.5379, -1.2787, -0.7928, 0.6094], abs=5e-5)
        assert data["roots_source"] == "bracketed"

    def test_exact_boundary_exit_code(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "4", "6", "4", "1",
                           "--exact", "--json")
        assert code == 2
        data = json.loads(out)
        assert data["classification"]["nature"] == "quadruple_root"
        assert data["fragile"] is True
        assert data["arithmetic"] == "rational"
        assert data["roots"][0]["value"] == pytest.approx(-1.0)

    def test_geometry_gate_matches_the_tetrahedron(self, capsys):
        # 3a^2 - 8b rounds to a tiny positive value one way and to 0 the
        # other; the report's geometry gate and tetrahedron_data must agree
        code, out, _ = run(capsys, "classify", "--quartic",
                           "-7.312715117751976", "20.05342589752436", "0", "0", "--json")
        assert code == 2
        data = json.loads(out)
        assert data["classification"]["nature"] == "two_equal_real"

    def test_exact_rejects_decimals(self, capsys):
        code, _, err = run(capsys, "classify", "--quartic", "1", "0", "0", "0.5",
                           "--exact")
        assert code == 1 and "exact mode" in err

    def test_cubic_text(self, capsys):
        code, out, _ = run(capsys, "classify", "--cubic", "0", "-1", "0")
        assert code == 0
        assert "three_distinct_real" in out
        assert f"{math.pi / 6:.6g}" in out

    def test_oracle_check_appends_agreement(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-0.95",
                           "--json", "--oracle-check")
        data = json.loads(out)
        assert data["oracle"]["real_count_agrees"] is True
        assert data["oracle"]["multiplicities_agree"] is True
        assert data["classification"]["case"] == "xvii"

    def test_overflow_is_an_error_report(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "1e90", "1e180", "1e270",
                           "1e300", "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "OverflowError"

    def test_overflowed_thresholds_are_an_error_report(self, capsys):
        # (x - 1.5 * 2^90)^4: the classification answers (flagged), but the
        # d-cubic's C overflows to NaN, and the report reads the thresholds
        s, r = 2.0 ** 90, 1.5
        coeffs = (-4 * r * s, 6 * r * r * s ** 2, -4 * r ** 3 * s ** 3, r ** 4 * s ** 4)
        code, out, _ = run(capsys, "classify", "--quartic", *map(repr, coeffs), "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "OverflowError"

    def test_cubic_overflow_is_an_error_report(self, capsys):
        # 27c^2 overflows the discriminant, which decides the count of real roots
        code, out, _ = run(capsys, "classify", "--cubic", "0", "-1", "1e307", "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "OverflowError"

    def test_subnormal_critical_gap_of_the_d_cubic_is_no_overflow(self, capsys):
        # the d-cubic's A^2 - 3B is -5.7e-212, whose 3/2 power is subnormal: the
        # arccos argument overflows, and the cube-root formula gives the d-root
        code, out, _ = run(capsys, "classify", "--quartic", "0", "3.4039005534695046e-212",
                           "1", "0", "--json")
        data = json.loads(out)
        assert code == 0 and data["classification"]["case"] == "iii"
        assert data["thresholds"]["d_roots"] == [pytest.approx((27 / 256) ** (1 / 3), rel=1e-15)]

    def test_exact_critical_gap_below_float_resolution(self, capsys):
        # a^2 - 3b is 1e-30 exactly but rounds below 0 in floats: the band is
        # built from the exact gap rounded once, which keeps its decided sign
        b = Fraction(841, 27) - Fraction(1, 10 ** 30)
        code, out, _ = run(capsys, "classify", "--cubic", "-29/3", str(b), "0",
                           "--exact", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["classification"]["kind"] == "one_real_plus_complex_pair"
        assert data["audit"][0]["name"] == "a2_vs_3b" and data["audit"][0]["value"] > 0
        assert [(r["value"], r["multiplicity"]) for r in data["roots"]] == [(0.0, 1)]

    @pytest.mark.parametrize("coeffs", [
        ("0", "1", "0"), ("-3", "4", "-1"), ("0", "2", "0"),
        ("0", "3", "0"), ("0", "4", "0"), ("3", "4", "1"),
    ])
    def test_cubic_without_critical_points_is_not_fragile(self, capsys, coeffs):
        # a^2 - 3b < 0 decides one real root; c = a^3/27 is never consulted
        code, out, _ = run(capsys, "classify", "--cubic", *coeffs, "--json")
        data = json.loads(out)
        assert code == 0
        assert data["fragile"] is False
        assert [a["name"] for a in data["audit"]] == ["a2_vs_3b"]

    def test_cubic_fragile_text_names_the_comparisons(self, capsys):
        code, out, _ = run(capsys, "classify", "--cubic", "0", "0", "0")
        assert code == 2
        assert "boundary-fragile comparisons: a2_vs_3b, c_vs_a3_over_27" in out

    def test_cubic_report_reuses_the_classification(self, sign_tests):
        from polyclass import cli

        cli.cmd_classify({"cubic": ["0", "-3", "1"]})
        # classify (2) and the isolation branch (1): the roots read the
        # verdict's comparisons, and no reader tests a predicate again
        assert len(sign_tests) <= 3

    def test_one_real_verdict_reports_one_real_root(self, capsys):
        # the exact discriminant is -1.4e-9; the arccos test alone reads |w| <= 1
        # and would list a double root at -0.04379 and a single one at 1.47461
        code, out, _ = run(capsys, "classify", "--cubic", "-1.3870346645816403",
                           "-0.1272221688670459", "-0.0028273608726040165", "--json")
        data = json.loads(out)
        assert code == 0 and data["fragile"] is False
        assert data["classification"]["kind"] == "one_real_plus_complex_pair"
        assert data["complex_pairs"] == 1
        [root] = data["roots"]
        assert root["multiplicity"] == 1
        assert root["value"] == pytest.approx(1.47461, abs=1e-5)

    def test_one_real_verdicts_near_a_double_root(self):
        # a one-real verdict lists one root and a pair, any other three real roots
        from polyclass import cli

        one_real = 0
        for coeffs in near_double_cubic_coeffs():
            data = cli.cmd_classify({"cubic": [repr(x) for x in coeffs]})[0].data
            real = [r["multiplicity"] for r in data["roots"]]
            if data["classification"]["kind"] == "one_real_plus_complex_pair":
                one_real += 1
                assert data["complex_pairs"] == 1, coeffs
                assert real == [1], coeffs
            else:
                assert (sum(real), data["complex_pairs"]) == (3, 0), coeffs
        assert 100 < one_real < 4900

    def test_double_plus_single_verdict_reports_three_real_roots(self, capsys):
        # the arccos test alone reads |w| > 1 and would list one root, -0.48460,
        # and a complex pair
        code, out, _ = run(capsys, "classify", "--cubic", "2.263222508251383",
                           "1.6527957763279557", "0.3832584935443065", "--json")
        data = json.loads(out)
        assert code == 2 and data["fragile"] is True
        assert data["classification"]["kind"] == "double_plus_single"
        assert data["complex_pairs"] == 0
        assert [(r["value"], r["multiplicity"]) for r in data["roots"]] == [
            (pytest.approx(-0.8893103, abs=1e-6), 2), (pytest.approx(-0.4846020, abs=1e-6), 1)]

    def test_tolerance_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-0.9288",
                           "--tol", "1e-6", "--json")
        assert code == 2
        assert json.loads(out)["eps"] == 1e-6
        assert '"eps": 1e-06' in out

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_invalid_tolerance_is_an_error_report(self, capsys, eps):
        # unchecked, such an eps reads (x^2 - 1)^2 as two_distinct_real or quadruple_root
        code, out, _ = run(capsys, "classify", "--quartic", "0", "-2", "0", "1",
                           "--tol", eps, "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ValueError"

    def test_oracle_check_solves_once(self, capsys, monkeypatch):
        calls = self._solve_calls(monkeypatch)
        code, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-0.95",
                           "--oracle-check", "--json")
        data = json.loads(out)
        assert code == 0 and data["roots_source"] == "bracketed"
        # the one call is the independent check: the reported roots are bracketed
        assert len(calls) == 1
        oracle = data["oracle"]
        assert oracle["real_count_agrees"] and oracle["multiplicities_agree"]
        assert_roots_agree([(r["value"], r["multiplicity"]) for r in data["roots"]],
                           [(r["value"], r["multiplicity"]) for r in oracle["roots"]],
                           (1.0, 3.0, 2.0, -1.0, -0.95))

    def _solve_calls(self, monkeypatch):
        import polyclass.cli as cli_mod
        import polyclass.quartic as quartic_mod

        calls = []
        for mod in (cli_mod, quartic_mod):
            monkeypatch.setattr(mod, "solve",
                                lambda p, solve=mod.solve: calls.append(p) or solve(p))
        return calls

    @pytest.mark.parametrize("command", ["classify", "localize"])
    def test_reports_make_no_oracle_call(self, capsys, monkeypatch, command):
        calls = self._solve_calls(monkeypatch)
        code, out, _ = run(capsys, command, "--quartic", "3", "2", "-1", "-0.95", "--json")
        data = json.loads(out)
        assert code == 0 and data["classification"]["nature"] == "four_distinct_real"
        assert data["roots"] and calls == []

    def test_fragile_triple_root_falls_back_to_the_oracle(self, capsys, monkeypatch):
        # x (x + 2.875)^3: read, fragile, as two distinct real roots; the
        # stationary point -2.875 is a root, so no bracket can be trusted
        calls = self._solve_calls(monkeypatch)
        code, out, _ = run(capsys, "classify", "--quartic", "8.625", "24.796875",
                           "23.763671875", "0", "--json")
        data = json.loads(out)
        assert code == 2 and data["fragile"] is True
        assert data["classification"]["nature"] == "two_distinct_real"
        assert data["roots_source"] == "oracle" and len(calls) == 1
        assert [(r["value"], r["multiplicity"]) for r in data["roots"]] == [
            (pytest.approx(-2.875), 3), (0.0, 1)]


class TestLocalizeCommand:
    def test_high_branch_example(self, capsys):
        code, out, _ = run(capsys, "localize", "--quartic", "-4", "5", "-1.75",
                           "-0.2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["branch"] == "high_c"
        assert data["intervals"][2][1] == pytest.approx(1.7071, abs=5e-5)
        assert all(data["contained"])

    def test_two_real_is_an_error(self, capsys):
        code, out, err = run(capsys, "localize", "--quartic", "0", "0", "0", "-1",
                             "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "NotFourReal"


class TestSynthesizeCommand:
    def test_quadruple(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--nature", "quadruple", "--a", "4",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["quartic"] == {"a": 4.0, "b": 6.0, "c": 4.0, "d": 1.0}
        assert data["round_trip_ok"] is True

    def test_chain_is_reported(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--nature", "four-distinct",
                           "--a", "5", "--json", "--seed", "3",
                           "--strategy", "random")
        data = json.loads(out)
        assert data["admissible"]["b"]["intervals"] == [[None, 9.375]]
        assert data["classified"]["nature"] == "four_distinct_real"

    def test_bad_nature_name(self, capsys):
        code, _, err = run(capsys, "synthesize", "--nature", "bogus", "--a", "1")
        assert code == 1

    @pytest.mark.parametrize("window", ["-5", "0", "nan", "inf"])
    def test_window_must_be_finite_and_positive(self, capsys, window):
        code, out, _ = run(capsys, "synthesize", "--nature", "four-distinct", "--a", "2",
                           "--strategy", "random", "--seed", "1", "--window", window,
                           "--json")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "ValueError" and "window" in error["message"]

    def test_unachievable_maps_to_error_object(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--nature", "quadruple", "--a", "4",
                           "--b", "5", "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "Unachievable"

    def test_two_equal_picks_c_off_c0(self, capsys):
        # b = 3a^2/8 = 0: no two-equal case has c = C0, so c is picked off it
        code, out, _ = run(capsys, "synthesize", "--nature", "two-equal", "--a", "0",
                           "--b", "0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["classified"]["nature"] == "two_equal_real" and data["quartic"]["c"] != 0

    def test_two_equal_on_the_quadruple_line_is_unachievable(self, capsys):
        # b = 3a^2/8 and c = a^3/16: the d-line holds no two-equal case
        code, out, _ = run(capsys, "synthesize", "--nature", "two-equal", "--a", "4",
                           "--b", "6", "--c", "4", "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "Unachievable"


    def test_double_pair_on_the_wrong_side_of_c0_is_unachievable(self, capsys):
        # c = 2 lies above C0 = 0, where case xvi's pair is the highest two
        code, out, _ = run(capsys, "synthesize", "--nature", "double-pair", "--a", "0",
                           "--b", "-6", "--c", "2", "--position", "lowest", "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "Unachievable"


class TestQuinticCommand:
    def test_monotone_example(self, capsys):
        code, out, _ = run(capsys, "quintic", "--coeffs", "0", "0", "0", "1", "0",
                           "--json")
        assert code == 0
        data = json.loads(out)
        assert data["delta_tilde_r"] == 0
        assert data["sign_changes"] == 0
        assert data["delta5_at_t"] == 256

    def test_degenerate_pure_power(self, capsys):
        code, out, _ = run(capsys, "quintic", "--coeffs", "0", "0", "0", "0", "0",
                           "--json")
        assert code == 0
        assert json.loads(out)["degenerate_at_boundary"] is True


class TestRenderCommand:
    def test_cubic_svg(self, capsys, tmp_path):
        out_path = tmp_path / "tri.svg"
        code, out, _ = run(capsys, "render", "--cubic", "0", "-1", "0",
                           "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 600"' in svg
        assert svg.count("<polygon") == 1

    def test_quartic_svg_contains_root_ticks(self, capsys, tmp_path):
        out_path = tmp_path / "quart.svg"
        code, _, _ = run(capsys, "render", "--quartic", "3", "2", "-1", "-0.95",
                         "--out", str(out_path))
        assert code == 0
        svg = out_path.read_text()
        for label in ("lam_min", "lam_max", "x1", "x2", "x3", "x4"):
            assert label in svg

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", "--quartic", "3", "2", "-1", "-0.95", "--out", str(p1))
        run(capsys, "render", "--quartic", "3", "2", "-1", "-0.95", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_triangle_is_an_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "--cubic", "1", "1", "1",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 1 and "NoTriangle" in err

    def test_exact_quartic_parses_fractions(self, capsys, tmp_path):
        exact, flt = tmp_path / "exact.svg", tmp_path / "float.svg"
        code, out, _ = run(capsys, "render", "--quartic", "3", "2", "-1", "-19/20",
                           "--exact", "--out", str(exact), "--json")
        assert code == 0
        assert json.loads(out)["kind"] == "quartic"
        run(capsys, "render", "--quartic", "3", "2", "-1", "-0.95", "--out", str(flt))
        assert exact.read_bytes() == flt.read_bytes()

    def test_unwritable_path_is_an_error_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "render", "--cubic", "0", "-1", "0",
                           "--out", str(tmp_path / "missing" / "x.svg"), "--json")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "FileNotFoundError"


class TestTextMode:
    """The plain-text report of each command: its key lines."""

    def test_classify_quartic_float(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-0.95",
                           "--oracle-check")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "case (xvii): four_distinct_real"
        assert lines[1] == "  C2=-1.25264  C0=-0.375  C1=0.502642"
        assert lines[2] == "  d-roots: 0.0967346  -0.928766  -1"
        assert lines[3] == ("roots: -1.53787 (x1)  -1.27873 (x1)  -0.792769 (x1)"
                            "  0.609367 (x1)  complex pairs: 0")
        assert lines[4] == "oracle check: real-count agreement = True"

    def test_classify_quartic_exact(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "0", "-2", "0", "1",
                           "--exact")
        assert code == 2
        assert out.splitlines() == [
            "case (xxvi): two_double_pairs",
            "  C2=-1.5396  C0=0  C1=1.5396",
            "  d_dagger=1  d_tilde=0",
            "roots: -1 (x2)  1 (x2)  complex pairs: 0",
            "warning: boundary-fragile comparisons: c_vs_C0, d_vs_d_dagger",
        ]

    def test_classify_quartic_without_real_roots(self, capsys):
        code, out, _ = run(capsys, "classify", "--quartic", "1", "1", "1", "1")
        assert code == 0
        assert out.splitlines()[1] == "  C2=n/a  C0=0.375  C1=n/a"
        assert out.splitlines()[-1] == "roots: none real  complex pairs: 2"

    def test_localize(self, capsys):
        code, out, _ = run(capsys, "localize", "--quartic", "-4", "5", "-1.75", "-0.2")
        assert code == 0
        assert out.splitlines() == [
            "branch: high_c  (tie at C0: False)",
            "  root -0.0896428 in [-0.224745, 0.292893]: True",
            "  root 0.868239 in [0.183503, 1.40825]: True",
            "  root 1.45353 in [1, 1.70711]: True",
            "  root 1.76787 in [1.40825, 2.22474]: True",
        ]

    def test_synthesize(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--nature", "double-pair", "--a", "1",
                           "--b", "-6", "--exact", "--position", "lowest")
        assert code == 0
        assert out.splitlines() == [
            "quartic: a=1 b=-6 c=-4 d=8",
            "  admissible b: intervals: (-inf, 0.375)  points: none",
            "  admissible c: intervals: (-11.8866, -25/8)  points: none",
            "  admissible d: intervals: none  points: 8",
            "classified: four_real_double_pair (case xvi), round trip ok: True",
        ]

    def test_quintic(self, capsys):
        code, out, _ = run(capsys, "quintic", "--coeffs", "1", "-2", "0.5", "0.25", "0")
        assert code == 0
        assert out.splitlines() == [
            "delta5 coefficients (t^4..t^0): 3125  16581  2656.5  78  -2.64062",
            "delta5 at t: -2.64062",
            "delta_t=-1.10407e+17  delta_tilde_s=1.50997e+15  delta_tilde_r=13824",
            "sign changes: 2  t-roots: -5.14153  0.0194306",
        ]

    def test_quintic_degenerate_at_boundary(self, capsys):
        code, out, _ = run(capsys, "quintic", "--coeffs", "0", "0", "0", "0", "0")
        assert code == 0
        assert out.splitlines()[-1] == "sign changes: degenerate at boundary"


class TestSelftest:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "selftest")
        code2, out2, _ = run(capsys, "selftest")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "PASS selftest" in out1

    def test_seed_changes_inputs_not_outcome(self, capsys):
        code, out, _ = run(capsys, "selftest", "--seed", "5")
        assert code == 0 and "PASS selftest" in out


class TestReportRoundTrip:
    def test_float_report(self, capsys):
        _, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-0.95",
                        "--json")
        report = Report.from_json(out)
        assert report.data["roots_source"] == "bracketed"
        assert Report.from_json(report.to_json()) == report

    def test_rational_report_preserves_fractions(self, capsys):
        _, out, _ = run(capsys, "classify", "--quartic", "3", "2", "-1", "-19/20",
                        "--exact", "--json")
        report = Report.from_json(out)
        assert report.data["input"]["coefficients"]["d"] == Fraction(-19, 20)
        assert Report.from_json(report.to_json()) == report

    def test_nested_structures_survive(self):
        report = Report(data={
            "schema": SCHEMA,
            "values": [Fraction(1, 3), 0.25, None, True, "text"],
            "nested": {"x": Fraction(-7, 2), "y": [1.5, Fraction(2, 5)]},
        })
        assert Report.from_json(report.to_json()) == report


class TestOracleCheckInvariance:
    def test_flag_only_appends_information(self, capsys):
        _, plain, _ = run(capsys, "classify", "--quartic", "1.3", "-2.1", "0.7",
                          "-0.4", "--json")
        _, checked, _ = run(capsys, "classify", "--quartic", "1.3", "-2.1", "0.7",
                            "-0.4", "--json", "--oracle-check")
        a, b = json.loads(plain), json.loads(checked)
        oracle = b.pop("oracle")
        assert a == b  # verdict and every other field unchanged
        assert oracle["real_count_agrees"] is True


#: run in a fresh interpreter: the modules a classify start loads, then the
#: package namespace as ``from polyclass import <name>`` and ``*`` see it
_COLD_IMPORT = """
import json, sys
import polyclass
bare = sorted(m for m in sys.modules if m.startswith("polyclass."))
import polyclass.cli
loaded = sorted(set(sys.argv[1:]) & set(sys.modules))
unresolved = []
for name in polyclass.__all__:
    try:
        exec(f"from polyclass import {name}", {})
    except ImportError:
        unresolved.append(name)
star = {}
exec("from polyclass import *", star)
print(json.dumps({"bare": bare, "loaded": loaded, "unresolved": unresolved,
                  "all": polyclass.__all__, "dir": dir(polyclass),
                  "star": sorted(set(star) - {"__builtins__"})}))
"""


class TestColdImport:
    @pytest.fixture(scope="class")
    def state(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        heavy = ["dataclasses", "inspect", "polyclass.reverse", "polyclass.quintic",
                 "polyclass.svg"]
        proc = subprocess.run([sys.executable, "-c", _COLD_IMPORT, *heavy], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return json.loads(proc.stdout)

    def test_the_package_imports_no_submodule(self, state):
        assert state["bare"] == []

    def test_classify_loads_no_dataclasses_and_no_other_command(self, state):
        assert state["loaded"] == []

    def test_every_public_name_resolves(self, state):
        assert state["unresolved"] == []
        assert set(state["all"]) <= set(state["dir"])
        assert state["star"] == sorted(state["all"])

    def test_public_names_are_the_modules_own(self):
        import importlib

        import polyclass

        for name in polyclass.__all__:
            value = getattr(polyclass, name)
            module = importlib.import_module(f"polyclass.{polyclass._MODULE_OF[name]}")
            assert getattr(module, name) is value, name
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            polyclass.nope
