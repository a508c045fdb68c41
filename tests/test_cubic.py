"""Cubic classification, trigonometric roots, triangle landmarks, isolation."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyclass import (
    Cubic,
    CubicKind,
    NoTriangle,
    OutOfRange,
    Quartic,
    Tolerance,
    classify_cubic,
    cubic_isolation_intervals,
    rotation_angle,
    solve,
    triangle_data,
    viete_roots,
)

from polyclass import cli, cubic, numeric, quartic
from polyclass.cubic import viete_values

from conftest import cubic_coeffs_from_roots, near_double_cubic_coeffs
from test_quartic import (
    _FRACTION_ARITHMETIC,
    _reference_compare,
    coefficient_fractions,
    small_roots,
)

C1_SYMMETRIC = 2.0 / 27.0 * math.sqrt(27.0)  # thresholds of x^3 - x + c


def _min_gap(*values):
    values = sorted(values)
    return min(y - x for x, y in zip(values, values[1:]))

root_value = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


class TestThresholds:
    def test_symmetric_cubic(self):
        thr = classify_cubic(Cubic(0.0, -1.0, 0.0)).thresholds
        assert thr.c0 == 0.0
        assert thr.c1 == pytest.approx(0.3849001794597505, rel=1e-12)
        assert thr.c2 == pytest.approx(-0.3849001794597505, rel=1e-12)

    def test_rejects_without_triangle(self):
        assert classify_cubic(Cubic(1.0, 1.0, 0.0)).thresholds is None

    def test_band_identities(self, rng):
        for _ in range(100):
            a = rng.uniform(-10, 10)
            b = a * a / 3.0 - rng.uniform(0.01, 10.0)
            thr = classify_cubic(Cubic(a, b, 0.0)).thresholds
            assert thr.c1 + thr.c2 == pytest.approx(2.0 * thr.c0, rel=1e-9, abs=1e-9)
            assert thr.c1 - thr.c2 == pytest.approx(
                4.0 / 27.0 * math.sqrt((a * a - 3 * b) ** 3), rel=1e-12)

    def test_scaled_derivative_reproduces_quartic_band(self):
        # monic derivative cubic of x^4+3x^3+2x^2+cx: thresholds on c/4 scale
        # back to the quartic's band by a factor 4
        thr = classify_cubic(Cubic(2.25, 1.0, 0.0)).thresholds
        assert 4.0 * thr.c0 == pytest.approx(-0.3750, abs=5e-5)
        assert 4.0 * thr.c1 == pytest.approx(0.5026, abs=5e-5)
        assert 4.0 * thr.c2 == pytest.approx(-1.2526, abs=5e-5)


class TestClassify:
    def test_three_distinct(self):
        cls = classify_cubic(Cubic(0.0, -1.0, 0.0))
        assert cls.kind is CubicKind.THREE_DISTINCT_REAL
        assert cls.triangle is not None

    def test_triple(self):
        assert classify_cubic(Cubic(0.0, 0.0, 0.0)).kind is CubicKind.TRIPLE_REAL

    def test_double_plus_single_on_band_edge(self):
        cls = classify_cubic(Cubic(0.0, -1.0, C1_SYMMETRIC))
        assert cls.kind is CubicKind.DOUBLE_PLUS_SINGLE
        rs = solve(Cubic(0.0, -1.0, C1_SYMMETRIC))
        assert tuple(sorted(rs.multiplicities)) == (1, 2)

    def test_one_real(self):
        assert (classify_cubic(Cubic(0.0, 3.0, 1.0)).kind
                is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR)
        assert (classify_cubic(Cubic(0.0, -1.0, 5.0)).kind
                is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR)
        # a^2 = 3b with c off the triple point has a single real root
        assert (classify_cubic(Cubic(3.0, 3.0, 7.0)).kind
                is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR)

    def test_numpy_integers_classify_as_python_ints(self):
        # int64 products would wrap at 2^63, and numpy bools do not subtract
        assert classify_cubic(Cubic(np.int64(2 ** 40), 0, 0)) == classify_cubic(Cubic(2 ** 40, 0, 0))
        d = Quartic(np.int32(3), 0, 0, np.int64(-5)).d
        assert type(d) is Fraction
        assert type(d.numerator) is int and type(d.denominator) is int

    def test_fraction_of_numpy_integers_classifies_as_python_fraction(self):
        big = Fraction(np.int64(2 ** 40))
        assert classify_cubic(Cubic(big, 0, 0)) == classify_cubic(Cubic(Fraction(2 ** 40), 0, 0))
        assert type(Cubic(big, 0, 0).a.numerator) is int


class TestComparisons:
    """classify_cubic tests each predicate once; the readers reuse its decisions."""

    def test_each_decision_is_recorded_once(self, sign_tests):
        cls = classify_cubic(Cubic(0.0, -3.0, 1.0))
        names = [c.name for c in cls.comparisons]
        assert names == ["a2_vs_3b", "c_band_via_disc"]
        assert sign_tests == ["compare_terms", "compare_terms"]

    def test_exact_decisions_are_made_on_the_lattice(self, sign_tests, monkeypatch):
        # exact input is tested on ints: no Tolerance call, no Fraction arithmetic
        cu = Cubic(-3, 2, Fraction(1, 3))
        calls = []
        for name in _FRACTION_ARITHMETIC:
            original = getattr(Fraction, name)
            monkeypatch.setattr(Fraction, name,
                                lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        cls = classify_cubic(cu)
        assert calls == [] and sign_tests == []
        monkeypatch.undo()
        assert [c.name for c in cls.comparisons] == ["a2_vs_3b", "c_band_via_disc"]
        assert cls.kind is CubicKind.THREE_DISTINCT_REAL

    @pytest.mark.parametrize("coeffs, names", [
        ((0, 1, 0), ["a2_vs_3b"]),
        ((3, 3, 7), ["a2_vs_3b", "c_vs_a3_over_27"]),
        ((-3, 3, -1), ["a2_vs_3b", "c_vs_a3_over_27"]),
        ((0, -1, 5), ["a2_vs_3b", "c_band_via_disc"]),
    ])
    def test_comparisons_follow_the_decision_path(self, coeffs, names):
        cls = classify_cubic(Cubic(*coeffs))
        assert [c.name for c in cls.comparisons] == names
        assert cls.comparisons[-1].fragile == (cls.kind is CubicKind.TRIPLE_REAL)

    def test_isolation_reads_the_classification(self, sign_tests):
        cu = Cubic(0.0, -3.0, 1.0)
        classify_cubic(cu)
        cubic_isolation_intervals(cu)
        # two classifications and the low/high branch test (12 when each
        # reader tested the predicates again)
        assert len(sign_tests) <= 5

    def test_readers_return_the_classification_fields(self):
        for cu in (Cubic(0.0, -1.0, 0.0), Cubic(2.25, 1.0, -0.25),
                   Cubic(0.0, -1.0, C1_SYMMETRIC)):
            cls = classify_cubic(cu)
            assert triangle_data(cu) == cls.triangle
            assert cls.triangle.theta == rotation_angle(cu)

    def test_comparison_is_shared_with_the_quartic(self):
        assert quartic.Comparison is numeric.Comparison

    def test_fraction_beyond_float_range_raises_overflow(self):
        # a^2 - 3b = -3e400 is decided exactly, but its recorded value and
        # margin are floats: compare_terms refuses, as in classify_quartic
        with pytest.raises(OverflowError):
            classify_cubic(Cubic(Fraction(0), Fraction(10 ** 400), Fraction(0)))


@st.composite
def rational_cubics(draw):
    """Rational cubics on and off the strata, weighted-scaled by 2^k."""
    kind = draw(st.sampled_from(["coefficients", "roots", "flat"]))
    if kind == "coefficients":
        a, b, c = (draw(coefficient_fractions) for _ in range(3))
    elif kind == "roots":  # repeated rational roots: double and triple roots
        r1 = draw(small_roots)
        r2 = draw(st.sampled_from([r1, draw(small_roots)]))
        r3 = draw(st.sampled_from([r1, r2, draw(small_roots)]))
        a, b, c = -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3
    else:  # a^2 = 3b: a triple root at c = a^3/27, else one real root
        a = draw(coefficient_fractions)
        b = a * a / 3
        c = draw(st.sampled_from([a ** 3 / 27, draw(coefficient_fractions)]))
    lam = Fraction(2) ** draw(st.integers(-40, 40))
    return Cubic(lam * a, lam ** 2 * b, lam ** 3 * c)


def _reference_classify(cu, tol):
    """Kind and comparisons of classify_cubic, every predicate on Fraction terms."""
    out = []

    def sign(name):
        s, value, margin, fragile = _reference_compare(tol, cubic._COMPARISONS[name][0](cu))
        out.append((name, value.hex(), margin.hex(), fragile))
        return s

    return cubic._cascade(sign), out


@settings(max_examples=300, deadline=None)
@given(rational_cubics(), st.sampled_from([1e-9, 1e-6]))
def test_lattice_verdict_equals_fraction_comparisons(cu, eps):
    tol = Tolerance(eps)
    kind, expected = _reference_classify(cu, tol)
    cls = classify_cubic(cu, tol)
    assert cls.kind is kind
    got = [(c.name, c.value.hex(), c.margin_units.hex(), c.fragile) for c in cls.comparisons]
    assert got == expected
    # every reader holds to that verdict
    assert (viete_values(cu, tol)[0] == "one") == (kind is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR)
    three = kind in (CubicKind.THREE_DISTINCT_REAL, CubicKind.DOUBLE_PLUS_SINGLE)
    assert (cls.triangle is not None) == three
    if three:
        assert triangle_data(cu, tol) == cls.triangle
        assert rotation_angle(cu, tol) == cls.triangle.theta
    else:
        with pytest.raises(NoTriangle):
            triangle_data(cu, tol)
        # a band without three real roots: c lies outside it
        with pytest.raises(OutOfRange if cls.thresholds is not None else NoTriangle):
            rotation_angle(cu, tol)


#: on these two the arccos argument w alone reads the other count of real
#: roots: |w| <= 1 on a confident one-real verdict (the exact discriminant is
#: -1.4e-9), |w| > 1 on a double root
ONE_REAL_NEAR_DOUBLE = Cubic(-1.3870346645816403, -0.1272221688670459,
                             -0.0028273608726040165)
DOUBLE_PAST_UNIT_ARGUMENT = Cubic(2.263222508251383, 1.6527957763279557, 0.3832584935443065)


class TestReadersHoldToTheVerdict:
    """viete_values, viete_roots, rotation_angle, triangle_data and the
    isolation intervals give the count of real roots that classify_cubic's
    discriminant test decides."""

    def test_near_double_sweep(self):
        one_real = 0
        for coeffs in near_double_cubic_coeffs():
            cu = Cubic(*coeffs)
            cls = classify_cubic(cu)
            one = cls.kind is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR
            one_real += one
            rs = viete_roots(cu)
            assert (rs.real_count, rs.complex_pairs) == ((1, 1) if one else (3, 0)), cu
            assert rs == cubic._verdict_roots(cu, cls), cu
            assert (viete_values(cu)[0] == "one") == one, cu
            if cls.comparisons[0].sign <= 0:  # a^2 - 3b reads <= 0: no band
                with pytest.raises(NoTriangle):
                    rotation_angle(cu)
            elif one:
                with pytest.raises(OutOfRange):
                    rotation_angle(cu)
            else:
                assert rotation_angle(cu) == triangle_data(cu).theta
                cubic_isolation_intervals(cu)
        assert 100 < one_real < 4900

    def test_one_real_near_a_double_root(self):
        cu = ONE_REAL_NEAR_DOUBLE
        cls = classify_cubic(cu)
        assert cls.kind is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR
        assert not any(c.fragile for c in cls.comparisons)
        rs = viete_roots(cu)
        assert rs.complex_pairs == 1
        assert rs.roots == ((pytest.approx(1.47461, abs=1e-5), 1),)
        assert viete_values(cu)[0] == "one"
        with pytest.raises(OutOfRange):
            rotation_angle(cu)
        with pytest.raises(NoTriangle):
            triangle_data(cu)

    def test_double_root_past_the_unit_argument(self):
        cu = DOUBLE_PAST_UNIT_ARGUMENT
        cls = classify_cubic(cu)
        assert cls.kind is CubicKind.DOUBLE_PLUS_SINGLE
        rs = viete_roots(cu)
        assert rs.complex_pairs == 0
        assert rs.roots == ((pytest.approx(-0.8893103, abs=1e-6), 2),
                            (pytest.approx(-0.4846020, abs=1e-6), 1))
        assert viete_values(cu)[0] == "three"
        tri = triangle_data(cu)
        assert rotation_angle(cu) == tri.theta == pytest.approx(0.0, abs=1e-6)
        lo, mid, hi = cubic_isolation_intervals(cu).intervals
        assert lo[0] <= -0.8893103 <= mid[1] and hi[0] <= -0.4846020 <= hi[1]


class TestVieteRoots:
    def test_symmetric_three_real(self):
        rs = viete_roots(Cubic(0.0, -1.0, 0.0))
        assert rs.values == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)

    def test_overflowing_arccos_argument_takes_the_cube_root(self):
        # 27c overflows the arccos argument; c - c0 then so outweighs a^2 - 3b
        # that the cube-root formula is exact to rounding, where the arccos
        # form would give a NaN root
        rs = viete_roots(Cubic(0.0, 1.0, 1e307))
        assert rs.complex_pairs == 1
        assert rs.roots == ((pytest.approx(-1e307 ** (1.0 / 3.0), rel=1e-15), 1),)

    @pytest.mark.parametrize("c", [1e307, -1e307])
    def test_overflowing_arccos_argument_keeps_the_one_real_branch(self, c):
        # a^2 - 3b > 0 but 27c^2 overflows the discriminant, which decides the
        # count: every public reader refuses, as classify_cubic does
        cu = Cubic(0.0, -1.0, c)
        for reader in (classify_cubic, viete_values, viete_roots, rotation_angle):
            with pytest.raises(OverflowError, match="overflow"):
                reader(cu)
        # the d-cubic of the quartic thresholds is held to the quartic's
        # one-real verdict: its arccos argument overflows to +-inf, one root
        assert cubic._decided_values(cu, 1, False)[0] == "one"

    def test_zero_free_term_gives_the_root_zero(self):
        # x (x^2 + a x + b) with a complex pair: the one real root is 0 exactly, where
        # the Viete formula gave +-1e-12.  These are p'/4 of the two-equal quartics
        # that synthesize picks by default (b = 3A^2/8 + 5, c = 0) for integer A
        for a in range(-50, 51):
            b = 3.0 * a * a / 8.0 + 5.0
            assert viete_roots(Cubic(3 * a / 4, b / 2, 0.0)).roots == ((0.0, 1),), a

    def test_derivative_cubic_of_worked_example(self):
        rs = viete_roots(Cubic(2.25, 1.0, -0.25))
        expected = (-1.425390529679106, -1.0, 0.1753905296791061)
        assert rs.values == pytest.approx(expected, abs=1e-10)
        oracle = solve(Cubic(2.25, 1.0, -0.25))
        assert rs.values == pytest.approx(oracle.values, abs=1e-10)

    def test_symmetric_band_center_gives_stationary_landmarks(self):
        # at c = c0 the roots are exactly sigma3 < -a/3 < sigma1
        rs = viete_roots(Cubic(2.25, 1.0, -0.09375))
        assert rs.values == pytest.approx(
            (-1.5791561975888500, -0.75, 0.0791561975888500), abs=1e-10)

    def test_one_real_negative_gap(self):
        rs = viete_roots(Cubic(0.0, 3.0, 1.0))
        assert rs.complex_pairs == 1
        assert rs.values[0] == pytest.approx(-0.3221853546260856, abs=1e-10)

    def test_one_real_outside_band(self):
        rs = viete_roots(Cubic(0.0, -1.0, 1.0))
        assert rs.values[0] == pytest.approx(-1.3247179572447460, abs=1e-10)
        rs = viete_roots(Cubic(0.0, -1.0, -1.0))
        assert rs.values[0] == pytest.approx(1.3247179572447460, abs=1e-10)

    def test_triple_fallthrough(self):
        rs = viete_roots(Cubic(-3.0, 3.0, -1.0))  # (x-1)^3
        assert rs.roots == ((1.0, 3),)
        rs = viete_roots(Cubic(-3.0, 3.0, 7.0))  # a^2 = 3b, c off the triple point
        assert rs.complex_pairs == 1
        assert rs.values[0] == pytest.approx(1.0 - 2.0, abs=1e-12)  # 1 - cbrt(8)

    def test_a_gap_sign_that_rounding_flips_is_a_degenerate_triangle(self):
        # a^2 - 3b is 3e-30 exactly but -2.8e-14 in floats: the decided sign +1
        # reads as 0, so no square root of the negative float gap is taken.
        # Three real roots are the triple root -a/3, and one real root comes
        # from the cube-root formula, off by the cube root of the float noise
        # in c - a^3/27 (about 1e-14 |a|^3)
        a = Fraction(-29, 3)
        b = a * a / 3 - Fraction(1, 10 ** 30)
        cu = Cubic(a, b, -2 * a ** 3 / 27 + a * b / 3)
        assert float(a) ** 2 - 3.0 * float(b) < 0.0
        assert cubic._decided_values(cu, 1, True) == ("triple", -float(a) / 3.0)
        kind, x = cubic._decided_values(cu, 1, False)
        assert kind == "one" and x == pytest.approx(float(-a / 3), rel=1e-4)

    @pytest.mark.parametrize("c", [Fraction(0), Fraction(1000), None])
    def test_exact_gap_below_float_resolution_builds_band_and_roots(self, c):
        # the same cubic: the band and the triangle take the exact gap 1e-30
        # rounded once, so no square root of the negative float gap is taken
        a = Fraction(-29, 3)
        b = a * a / 3 - Fraction(1, 10 ** 30)
        at_c0 = c is None  # strictly inside the band
        cu = Cubic(a, b, -2 * a ** 3 / 27 + a * b / 3 if at_c0 else c)
        cls = classify_cubic(cu)
        assert cls.comparisons[0].sign == 1
        thr = cls.thresholds
        assert thr.c2 <= thr.c0 <= thr.c1
        one = cls.kind is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR
        assert one != at_c0
        assert (cls.triangle is None) == one
        rs = viete_roots(cu)
        assert (rs.real_count, rs.complex_pairs) == ((1, 1) if one else (3, 0))
        if at_c0:
            # the arccos numerator 27 (c - c0) is exact too, rounded once: pi/6 at
            # c0, and it turns with c inside the band, half-width 2/27 (3e-30)^(3/2)
            assert cls.triangle.theta == pytest.approx(math.pi / 6, rel=1e-15)
            for off in (Fraction(1, 10 ** 46), Fraction(-1, 10 ** 46)):
                theta = classify_cubic(Cubic(a, b, cu.c + off)).triangle.theta
                w = -27 * float(off) / (2 * 3e-30 ** 1.5)
                assert theta == pytest.approx(math.acos(w) / 3, rel=1e-12)

    @pytest.mark.parametrize("roots", [
        (-4.486306789057615, -4.5391132531659295, -4.5391132531659295),
        (2.4375, 2.4375, 2.457407069367669),
        (1.84375, 1.84375, 1.8420594792190306),
    ])
    def test_double_root_past_unit_argument_stays_real(self, roots):
        # the arccos argument misses 1 + eps through cancellation in its numerator
        cu = Cubic(*cubic_coeffs_from_roots(*roots))
        assert classify_cubic(cu).kind is CubicKind.DOUBLE_PLUS_SINGLE
        assert viete_roots(cu).expanded() == pytest.approx(sorted(roots), abs=1e-6)

    def test_subnormal_triple_root(self):
        # c = -r^3 is subnormal and carries an absolute rounding of 2^-1075
        r = 1.0980362063828768e-107
        cu = Cubic(*cubic_coeffs_from_roots(r, r, r))
        assert classify_cubic(cu).kind is CubicKind.TRIPLE_REAL
        assert viete_roots(cu).roots == ((r, 3),)

    @pytest.mark.parametrize("roots, multiplicities", [
        ((0.0, 1e-7, 2e-7), [1, 1, 1]),
        ((-1.0, 1.0, 1.002), [1, 1, 1]),
        ((3.0, -2.5, -2.504), [1, 1, 1]),
        ((0.0, 1e-3, -1.0), [1, 1, 1]),
        ((-0.75, 1e-3, 2e-3), [1, 1, 1]),
        ((1e6, 0.0, 0.5), [1, 1, 1]),
        ((1e5, -1.0, -1.001), [1, 1, 1]),
        ((1e-7, 1e-7, -2e-7), [1, 2]),
        ((0.5, 0.5, -1.0), [1, 2]),
        ((1.5, 1.5, 0.25), [1, 2]),
        ((-3.0, 0.75, 0.75), [1, 2]),
        ((0.0, 0.0, 1.0), [1, 2]),
    ])
    def test_multiplicities_survive_power_of_two_scaling(self, roots, multiplicities):
        # roots 1e-3 apart relative to the pair's own size stay simple, also
        # next to a far root, and exact doubles stay double, in viete_roots
        # and in the classify report, however small the roots are scaled
        base = cubic_coeffs_from_roots(*roots)
        for k in range(61):
            a, b, c = (x * 2.0 ** (-k * w) for w, x in enumerate(base, 1))
            assert sorted(viete_roots(Cubic(a, b, c)).multiplicities) == multiplicities, k
            report = cli.cmd_classify({"cubic": [repr(a), repr(b), repr(c)]})[0].data
            assert sorted(r["multiplicity"] for r in report["roots"]) == multiplicities, k

    def test_boundary_double_root_merges(self):
        rs = viete_roots(Cubic(0.0, -1.0, C1_SYMMETRIC))
        assert tuple(sorted(rs.multiplicities)) == (1, 2)

    @settings(max_examples=200, deadline=None)
    @given(root_value, root_value, root_value)
    def test_matches_constructed_roots(self, r1, r2, r3):
        assume(_min_gap(r1, r2, r3) > 1e-4)
        cu = Cubic(*cubic_coeffs_from_roots(r1, r2, r3))
        rs = viete_roots(cu)
        got = rs.expanded()
        want = tuple(sorted((r1, r2, r3)))
        assert len(got) == 3
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=2e-7)

    @settings(max_examples=150, deadline=None)
    @given(root_value, root_value, root_value)
    def test_elementary_symmetric_identities(self, r1, r2, r3):
        a, b, c = cubic_coeffs_from_roots(r1, r2, r3)
        rs = viete_roots(Cubic(a, b, c))
        vals = rs.expanded()
        scale = 1.0 + max(abs(v) for v in vals)
        assert sum(vals) == pytest.approx(-a, abs=1e-9 * scale)
        assert (vals[0] * vals[1] + vals[0] * vals[2] + vals[1] * vals[2]
                == pytest.approx(b, abs=1e-8 * scale ** 2))
        assert vals[0] * vals[1] * vals[2] == pytest.approx(-c, abs=1e-8 * scale ** 3)


class TestRotationAngle:
    def test_band_endpoints_and_center(self):
        thr = classify_cubic(Cubic(0.0, -1.0, 0.0)).thresholds
        assert rotation_angle(Cubic(0.0, -1.0, thr.c2)) == pytest.approx(0.0, abs=1e-7)
        assert rotation_angle(Cubic(0.0, -1.0, 0.0)) == pytest.approx(math.pi / 6, rel=1e-12)
        assert rotation_angle(Cubic(0.0, -1.0, thr.c1)) == pytest.approx(math.pi / 3, abs=1e-7)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            rotation_angle(Cubic(0.0, -1.0, 1.0))
        with pytest.raises(NoTriangle):
            rotation_angle(Cubic(0.0, 1.0, 0.0))

    def test_monotone_in_free_term(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5)
            b = a * a / 3.0 - rng.uniform(0.1, 5.0)
            thr = classify_cubic(Cubic(a, b, 0.0)).thresholds
            cs = np.linspace(thr.c2, thr.c1, 30)
            angles = [rotation_angle(Cubic(a, b, c)) for c in cs]
            assert all(x <= y + 1e-12 for x, y in zip(angles, angles[1:]))


class TestTriangle:
    def test_symmetric_triangle(self):
        tri = triangle_data(Cubic(0.0, -1.0, 0.0))
        assert tri.incircle_radius == pytest.approx(math.sqrt(3.0) / 3.0, rel=1e-12)
        assert tri.centroid_x == 0.0
        assert sorted(v[0] for v in tri.vertices) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_derivative_triangle_radius_matches_tetrahedron(self):
        # r of the monic derivative cubic equals the quartic's insphere radius
        tri = triangle_data(Cubic(2.25, 1.0, -0.25))
        assert tri.incircle_radius == pytest.approx(0.4787, abs=5e-5)

    def test_vertex_y_coordinates_sum_to_zero(self, rng):
        for _ in range(100):
            roots = rng.uniform(-5, 5, size=3)
            cu = Cubic(*cubic_coeffs_from_roots(*roots))
            tri = triangle_data(cu)
            ys = [v[1] for v in tri.vertices]
            assert sum(ys) == pytest.approx(0.0, abs=1e-9)

    def test_triangle_is_equilateral(self, rng):
        for _ in range(50):
            roots = rng.uniform(-5, 5, size=3)
            tri = triangle_data(Cubic(*cubic_coeffs_from_roots(*roots)))
            (x1, y1), (x2, y2), (x3, y3) = tri.vertices
            sides = [
                math.hypot(x1 - x2, y1 - y2),
                math.hypot(x2 - x3, y2 - y3),
                math.hypot(x3 - x1, y3 - y1),
            ]
            assert max(sides) == pytest.approx(min(sides), rel=1e-7)
            assert max(sides) == pytest.approx(tri.side, rel=1e-7)

    def test_degenerate_double_root_allowed(self):
        tri = triangle_data(Cubic(0.0, -1.0, C1_SYMMETRIC))
        xs = sorted(v[0] for v in tri.vertices)
        assert xs[1] == pytest.approx(xs[2], abs=1e-6)

    def test_rejections(self):
        with pytest.raises(NoTriangle):
            triangle_data(Cubic(0.0, 0.0, 0.0))  # triple root: a point
        with pytest.raises(NoTriangle):
            triangle_data(Cubic(0.0, 3.0, 1.0))
        with pytest.raises(NoTriangle):
            triangle_data(Cubic(0.0, -1.0, 5.0))


class TestSpan:
    @settings(max_examples=200, deadline=None)
    @given(root_value, root_value, root_value)
    def test_span_between_height_and_side(self, r1, r2, r3):
        assume(_min_gap(r1, r2, r3) > 1e-6)
        a, b, c = cubic_coeffs_from_roots(r1, r2, r3)
        cu = Cubic(a, b, c)
        if classify_cubic(cu).kind is CubicKind.TRIPLE_REAL:
            return
        tri = triangle_data(cu)
        span = max(r1, r2, r3) - min(r1, r2, r3)
        r = tri.incircle_radius
        assert 3.0 * r - 1e-9 <= span <= math.sqrt(12.0) * r + 1e-9

    def test_extremes_attained(self):
        # c = c0: span equals the side; c = c1: span equals the height 3r
        tri = triangle_data(Cubic(0.0, -1.0, 0.0))
        assert 2.0 == pytest.approx(tri.side, rel=1e-12)
        rs = viete_roots(Cubic(0.0, -1.0, C1_SYMMETRIC))
        vals = rs.expanded()
        assert vals[-1] - vals[0] == pytest.approx(3.0 * tri.incircle_radius, abs=1e-7)


class TestIsolation:
    def test_symmetric_center_both_branches(self):
        iso = cubic_isolation_intervals(Cubic(0.0, -1.0, 0.0))
        rs = viete_roots(Cubic(0.0, -1.0, 0.0))
        for value, (lo, hi) in zip(rs.expanded(), iso.intervals):
            assert lo - 1e-9 <= value <= hi + 1e-9

    def test_derivative_cubic_example(self):
        cu = Cubic(2.25, 1.0, -0.25)
        iso = cubic_isolation_intervals(cu)
        oracle = solve(cu)
        for value, (lo, hi) in zip(oracle.expanded(), iso.intervals):
            assert lo - 1e-9 <= value <= hi + 1e-9

    def test_branch_selection(self):
        thr = classify_cubic(Cubic(0.0, -1.0, 0.0)).thresholds
        low = cubic_isolation_intervals(Cubic(0.0, -1.0, 0.6 * thr.c2))
        high = cubic_isolation_intervals(Cubic(0.0, -1.0, 0.6 * thr.c1))
        assert low.branch == "low_c" and high.branch == "high_c"

    @settings(max_examples=200, deadline=None)
    @given(root_value, root_value, root_value)
    def test_containment_random(self, r1, r2, r3):
        assume(_min_gap(r1, r2, r3) > 1e-6)
        cu = Cubic(*cubic_coeffs_from_roots(r1, r2, r3))
        if classify_cubic(cu).kind is CubicKind.TRIPLE_REAL:
            return
        iso = cubic_isolation_intervals(cu)
        for value, (lo, hi) in zip(sorted((r1, r2, r3)), iso.intervals):
            assert lo - 1e-7 <= value <= hi + 1e-7

    def test_requires_three_real(self):
        with pytest.raises(NoTriangle):
            cubic_isolation_intervals(Cubic(0.0, 3.0, 1.0))


class TestSpanExtremesOnlyAtBandLandmarks:
    def test_interior_free_terms_span_strictly_between(self, rng):
        # span hits 3r only on the band edges and sqrt(12) r only at the center
        for _ in range(100):
            a = rng.uniform(-5, 5)
            b = a * a / 3.0 - rng.uniform(0.5, 5.0)
            thr = classify_cubic(Cubic(a, b, 0.0)).thresholds
            t = rng.uniform(0.05, 0.45)
            if rng.uniform() < 0.5:
                c = thr.c2 + t * (thr.c0 - thr.c2)
            else:
                c = thr.c0 + t * (thr.c1 - thr.c0)
            cu = Cubic(a, b, c)
            vals = viete_roots(cu).expanded()
            span = vals[-1] - vals[0]
            r = math.sqrt(a * a - 3 * b) / 3.0
            assert span > 3 * r + 1e-6 * r
            assert span < math.sqrt(12.0) * r - 1e-6 * r
