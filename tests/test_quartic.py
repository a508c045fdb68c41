"""The 32-case classification, thresholds, discriminant identities, audit."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyclass import (
    ClassificationCase,
    Cubic,
    DoublePairPosition,
    Nature,
    Quartic,
    Tolerance,
    admissible_d_range,
    classify_quartic,
    delta3,
    delta3_expanded,
    discriminant_quartic,
    quartic_thresholds,
    solve,
)
from polyclass import cubic as cubic_mod
from polyclass import quartic as quartic_mod
from polyclass.numeric import MIN_NORMAL, _lattice
from polyclass.poly import cubic_discriminant_terms
from polyclass.quartic import NATURE_STRUCTURE

from conftest import (
    assert_roots_agree,
    distinct_real_root_count,
    eval_scale,
    isolated_real_roots,
    quartic_coeffs_from_roots,
    root_gap_bound,
    sign_changes,
    sturm_chain,
)

#: 0 or 1e-3 <= |x| <= 3: the exact d-cubic of a tinier float carries ints of
#: thousands of bits, which only slows its Sturm chain down
_MODERATE = st.one_of(st.just(0.0), st.floats(1e-3, 3.0), st.floats(-3.0, -1e-3))

_B_NEAR = 3 * Fraction(-58, 5) ** 2 / 8 - Fraction(1, 10 ** 30)

EX1 = Quartic(3.0, 2.0, -1.0, -0.95)
EX2 = Quartic(-4.0, 5.0, -1.75, -0.2)


class TestThresholds:
    def test_worked_example_1(self):
        thr = quartic_thresholds(EX1)
        assert thr.c_lo == pytest.approx(-1.2526, abs=5e-5)
        assert thr.c_mid == pytest.approx(-0.3750, abs=5e-5)
        assert thr.c_hi == pytest.approx(0.5026, abs=5e-5)
        d1, d2, d3 = thr.d_roots
        assert d1 == pytest.approx(0.0967, abs=5e-5)
        assert d2 == pytest.approx(-0.9288, abs=5e-5)
        assert d3 == pytest.approx(-1.0000, abs=5e-5)

    def test_worked_example_2(self):
        thr = quartic_thresholds(EX2)
        assert thr.c_mid == pytest.approx(-2.0000, abs=5e-5)
        assert thr.c_hi == pytest.approx(-1.4557, abs=5e-5)
        assert thr.c_lo == pytest.approx(-2.5443, abs=5e-5)
        d1, d2, d3 = thr.d_roots
        assert d3 == pytest.approx(-0.2659, abs=5e-5)
        assert d2 == pytest.approx(-0.1681, abs=5e-5)
        assert d1 == pytest.approx(0.1840, abs=5e-5)

    def test_band_identities(self, rng):
        for _ in range(100):
            a = rng.uniform(-10, 10)
            b = 3 * a * a / 8 - rng.uniform(0.1, 10)
            thr = quartic_thresholds(Quartic(a, b, 0.0, 0.0))
            gap = 3 * a * a - 8 * b
            assert thr.c_hi + thr.c_lo == pytest.approx(2 * float(thr.c_mid), rel=1e-9, abs=1e-9)
            assert thr.c_hi - thr.c_lo == pytest.approx(
                math.sqrt(3.0) / 36.0 * math.sqrt(gap ** 3), rel=1e-12)

    def test_triple_d_root_at_fold_point(self):
        # b = 3a^2/8 and c = a^3/16 folds the d-cubic into a perfect cube
        thr = quartic_thresholds(Quartic(4.0, 6.0, 4.0, 0.0))
        assert thr.c_mid == 4.0
        assert thr.d_roots == (1.0,)
        assert thr.d_tilde == 1.0

    def test_discriminant_vanishes_at_d_roots(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5)
            b = 3 * a * a / 8 - rng.uniform(0.5, 8)
            thr0 = quartic_thresholds(Quartic(a, b, 0.0, 0.0))
            c = rng.uniform(thr0.c_lo, thr0.c_hi)
            if abs(c - float(thr0.c_mid)) < 1e-3:
                continue
            thr = quartic_thresholds(Quartic(a, b, c, 0.0))
            assert len(thr.d_roots) == 3
            for d in thr.d_roots:
                q = Quartic(a, b, c, d)
                value = discriminant_quartic(q)
                scale = max(abs(t) for t in
                            __import__("polyclass.poly", fromlist=["q"]).quartic_discriminant_terms(q))
                assert abs(value) <= 1e-8 * scale

    def test_sign_pattern_between_d_roots(self):
        thr = quartic_thresholds(EX1)
        d1, d2, d3 = thr.d_roots
        probes = [
            (d1 + 1.0, 1), ((d1 + d2) / 2, -1), ((d2 + d3) / 2, 1), (d3 - 1.0, -1),
        ]
        for d, sign in probes:
            assert math.copysign(1, discriminant_quartic(Quartic(3.0, 2.0, -1.0, d))) == sign

    def test_one_d_root_just_outside_the_band(self):
        # c lies just below C2 (c_band margin +1232, unflagged), so Delta3 < 0; the
        # arccos test alone read three d-roots, the last two 3.9e-9 apart.  The d-root,
        # p at the one stationary point of the float coefficients, is within 1 ulp of
        # the exact root.
        coeffs = (0.6496321368960247, -0.642072305088444, -0.632558909960384,
                  0.26506228457592496)
        for q in (Quartic(*coeffs), Quartic(*map(Fraction, coeffs))):
            assert classify_quartic(q).case is ClassificationCase.XXXII
            [d0] = quartic_thresholds(q).d_roots
            assert d0 == pytest.approx(0.3433097848926859, rel=4e-16)

    @pytest.mark.parametrize("num", [float, Fraction])
    def test_one_d_root_is_p_at_the_stationary_point(self, num):
        # just outside the band the float d-cubic's Viete root lost 8 digits here,
        # 102.6611321505014; p at the one stationary point gives the exact root
        [d0] = quartic_thresholds(Quartic(*map(num, (-12.75, 60.828125, -128.9140625, 0)))).d_roots
        assert d0 == 102.6611328125
        # c = 0 puts a stationary point at 0, so the d-root is 0, with no sign bit
        for abc in ((2, 6.5, 0), (-2.875, 3.1953125, 0)):
            [d0] = quartic_thresholds(Quartic(*map(num, (*abc, 0)))).d_roots
            assert d0 == 0.0 and math.copysign(1.0, d0) == 1.0

    def test_d_root_count_follows_delta3_at_the_band_edges(self):
        # c a few ulps to 1e-6 off C1 or C2, either side: three d-roots exactly
        # where Delta3 > 0, one where Delta3 < 0
        rng = np.random.default_rng(77)
        counts = {1: 0, 3: 0}
        for _ in range(1500):
            a = Fraction(int(rng.integers(-40, 41)), 8)
            b = 3 * a * a / 8 - Fraction(int(rng.integers(1, 129)), 16)
            thr0 = quartic_thresholds(Quartic(a, b, Fraction(0), Fraction(0)))
            edge = thr0.c_hi if rng.random() < 0.5 else thr0.c_lo
            c = Fraction(edge + float(rng.choice((-1, 1))) * 10.0 ** rng.uniform(-15, -6)
                         * (1 + abs(edge)))
            q = Quartic(a, b, c, Fraction(0))
            sign = delta3(q)
            if sign == 0:
                continue
            count = len(quartic_thresholds(q).d_roots)
            assert count == (3 if sign > 0 else 1), (a, b, c)
            counts[count] += 1
        assert min(counts.values()) > 300

    def test_exact_fields_stay_rational(self):
        thr = quartic_thresholds(Quartic(Fraction(1), Fraction(-1), Fraction(0), Fraction(0)))
        assert isinstance(thr.c_mid, Fraction) and thr.c_mid == Fraction(-5, 8)
        assert all(isinstance(v, Fraction) for v in thr.abc)

    @pytest.mark.parametrize("abc", [
        # d2 - d3 is 5.1e-7 here and 1.1e-8 below: rounding the d-cubic's
        # coefficients to floats moves its roots by more than that
        (-2.309553368887812, 1.9882203585167098, -0.7567220644189119),
        (-2.3096, 1.9882, -0.7567),
    ])
    def test_crowded_d_roots_hold_to_the_exact_roots(self, abc):
        d_roots = quartic_thresholds(Quartic(*abc, 0.0)).d_roots
        A, B, C = quartic_mod._d_cubic(*map(Fraction, abc))
        exact = isolated_real_roots([1, A, B, C], Fraction(1, 10 ** 20))
        assert len(d_roots) == len(exact) == 3
        for d, e in zip(d_roots, exact):
            assert abs(Fraction(d) - e) <= Fraction(1, 10 ** 15) * abs(e), (d, float(e))
        [(lo, hi)] = admissible_d_range(*abc, Nature.FOUR_DISTINCT_REAL).intervals
        assert lo < hi

    @settings(max_examples=150, deadline=None)
    @given(_MODERATE, st.floats(-9, 1), _MODERATE, _MODERATE, st.booleans())
    def test_three_d_roots_match_the_exact_d_cubic(self, a, log_gap, u, c, inside):
        # with ``inside``, 3a^2 - 8b = 10^log_gap and c sits at u/3 of the half band
        # around C0: a small gap crowds the d-roots; otherwise (a, b, c) = (a, u, c)
        if inside:
            gap = 10.0 ** log_gap
            b = (3 * a * a - gap) / 8
            c = float(quartic_thresholds(Quartic(a, b, 0.0, 0.0)).c_mid)
            c += u / 3.0 * math.sqrt(3.0) / 72.0 * math.sqrt(gap ** 3)
        else:
            b = u
        q = Quartic(a, b, c, 0.0)
        # three d-roots: b < 3a^2/8, c != C0 and c strictly inside (C2, C1)
        s_b, s_c0, s_band = (cmp.sign for cmp in classify_quartic(q).comparisons[:3])
        assume(s_b < 0 and s_c0 != 0 and s_band < 0)
        d_roots = quartic_thresholds(q).d_roots
        A, B, C = quartic_mod._d_cubic(*map(Fraction, (a, b, c)))
        tol = Fraction(1e-14) * max(1, abs(d_roots[0]), abs(d_roots[2]))
        exact = isolated_real_roots([1, A, B, C], tol / 16)
        assert len(exact) == 3
        for d, e in zip(d_roots, exact):
            assert abs(Fraction(d) - e) <= tol - tol / 16, (d, float(e))

    @pytest.mark.parametrize("a, b, c", [
        # a'^2 - 3b' of p'/4 is 5.6e-241, and its 3/2 power underflows
        (Fraction(1, 10 ** 120), Fraction(0), -Fraction(1, 10 ** 360) / 16),
        # 3a^2 - 8b is 8e-30, but a'^2 - 3b' rounds to -1.4e-14 in floats
        (Fraction(-58, 5), _B_NEAR, -Fraction(-58, 5) ** 3 / 8 + Fraction(-29, 5) * _B_NEAR
         + Fraction(1, 10 ** 50)),
    ])
    def test_three_d_roots_where_the_stationary_points_meet_in_floats(self, a, b, c):
        # exact input inside the band: the band test reads < 0, so there are three
        # d-roots, but as far as floats tell p has one (triple) stationary point
        q = Quartic(a, b, c, Fraction(0))
        signs = [cmp.sign for cmp in classify_quartic(q).comparisons[:3]]
        assert signs == [-1, 1, -1]  # b < 3a^2/8, c > C0, inside (C2, C1)
        d_roots = quartic_thresholds(q).d_roots
        assert len(d_roots) == 3 and len(set(d_roots)) == 1
        # all three roots of the exact d-cubic lie within 1e-14 max(1, |d|) of it
        chain = sturm_chain([1, *quartic_mod._d_cubic(a, b, c)])
        d = Fraction(d_roots[0])
        tol = Fraction(1, 10 ** 14) * max(1, abs(d))
        assert distinct_real_root_count(chain[0]) == 3
        assert sign_changes(chain, d - tol) - sign_changes(chain, d + tol) == 3


class TestDelta3:
    def test_zero_on_c0(self):
        q = Quartic(Fraction(7), Fraction(2), Fraction(-287, 8), Fraction(1))
        # c = C0 = -a^3/8 + ab/2 exactly
        assert q.c == -q.a ** 3 / 8 + q.a * q.b / 2
        assert delta3(q) == 0 and delta3_expanded(q) == 0

    def test_negative_without_band(self, rng):
        for _ in range(50):
            a = rng.uniform(-5, 5)
            b = 3 * a * a / 8 + rng.uniform(0.1, 5)
            c = rng.uniform(-5, 5)
            q = Quartic(a, b, c, 0.0)
            if abs(c - (-a ** 3 / 8 + a * b / 2)) < 1e-6:
                continue
            assert delta3_expanded(q) < 0
            assert delta3(q) < 0

    def test_positive_inside_band(self):
        assert delta3(Quartic(3.0, 2.0, -1.0, 0.0)) > 0

    def test_factored_equals_expanded(self, rng):
        for _ in range(300):
            a, b, c = rng.uniform(-10, 10, size=3)
            q = Quartic(a, b, c, 0.0)
            f, e = delta3(q), delta3_expanded(q)
            assert f == pytest.approx(e, rel=1e-10, abs=1e-10)

    def test_factored_equals_expanded_exactly_rational(self):
        q = Quartic(Fraction(3), Fraction(2), Fraction(-1), Fraction(0))
        assert delta3(q) == delta3_expanded(q)

    def test_matches_cubic_discriminant_normalization(self):
        # delta3 is the discriminant of 256(d^3 + A d^2 + B d + C): factor 256^4
        from polyclass.quartic import _d_cubic

        q = Quartic(Fraction(3), Fraction(2), Fraction(-1), Fraction(0))
        A, B, C = _d_cubic(q.a, q.b, q.c)
        assert delta3(q) == 256 ** 4 * sum(cubic_discriminant_terms(Cubic(A, B, C)))


def _case(name: str) -> ClassificationCase:
    return ClassificationCase[name.upper()]


def _instances_for_all_cases():
    """One concrete quartic per classification case."""
    out = []

    def add(case, a, b, c, d):
        out.append((case, Quartic(float(a), float(b), float(c), float(d))))

    # b > 3a^2/8 (a=1, b=2; C0 = 7/8)
    thr = quartic_thresholds(Quartic(1.0, 2.0, 1.5, 0.0))
    d0 = thr.d_roots[0]
    add("i", 1, 2, 1.5, d0 + 1)
    add("ii", 1, 2, 1.5, d0)
    add("iii", 1, 2, 1.5, d0 - 1)
    thr = quartic_thresholds(Quartic(1.0, 2.0, 0.875, 0.0))
    add("iv", 1, 2, 0.875, thr.d_tilde + 1)
    add("v", 1, 2, 0.875, thr.d_tilde)
    add("vi", 1, 2, 0.875, thr.d_tilde - 1)
    # b = 3a^2/8 (a=2, b=1.5; C0 = 0.5)
    thr = quartic_thresholds(Quartic(2.0, 1.5, 1.25, 0.0))
    d0 = thr.d_roots[0]
    add("vii", 2, 1.5, 1.25, d0 + 1)
    add("viii", 2, 1.5, 1.25, d0)
    add("ix", 2, 1.5, 1.25, d0 - 1)
    add("x", 2, 1.5, 0.5, 1.0 / 16 + 1)
    add("xi", 2, 1.5, 0.5, 1.0 / 16)
    add("xii", 2, 1.5, 0.5, 1.0 / 16 - 1)
    # b < 3a^2/8, inside the band, c != C0 (worked example a=3, b=2, c=-1)
    thr = quartic_thresholds(Quartic(3.0, 2.0, -1.0, 0.0))
    d1, d2, d3 = thr.d_roots
    add("xiii", 3, 2, -1, d1 + 1)
    add("xiv", 3, 2, -1, d1)
    add("xv", 3, 2, -1, (d1 + d2) / 2)
    add("xvi", 3, 2, -1, d2)
    add("xvii", 3, 2, -1, -0.95)
    add("xviii", 3, 2, -1, d3)
    add("xix", 3, 2, -1, d3 - 1)
    # c on the band edge C1
    c1 = quartic_thresholds(Quartic(3.0, 2.0, 0.0, 0.0)).c_hi
    thr = quartic_thresholds(Quartic(3.0, 2.0, c1, 0.0))
    dag, til = thr.d_dagger, thr.d_tilde
    assert til > dag
    add("xx", 3, 2, c1, til + 1)
    add("xxi", 3, 2, c1, til)
    add("xxii", 3, 2, c1, (dag + til) / 2)
    add("xxiii", 3, 2, c1, dag)
    add("xxiv", 3, 2, c1, dag - 1)
    # c = C0 with b < 3a^2/8
    thr = quartic_thresholds(Quartic(3.0, 2.0, -0.375, 0.0))
    dag, til = thr.d_dagger, thr.d_tilde
    assert dag > til
    add("xxv", 3, 2, -0.375, dag + 1)
    add("xxvi", 3, 2, -0.375, dag)
    add("xxvii", 3, 2, -0.375, (dag + til) / 2)
    add("xxviii", 3, 2, -0.375, til)
    add("xxix", 3, 2, -0.375, til - 1)
    # c outside [C2, C1]
    thr = quartic_thresholds(Quartic(3.0, 2.0, 2.0, 0.0))
    d0 = thr.d_roots[0]
    add("xxx", 3, 2, 2, d0 + 1)
    add("xxxi", 3, 2, 2, d0)
    add("xxxii", 3, 2, 2, d0 - 1)
    return out


class TestAllThirtyTwoCases:
    @pytest.mark.parametrize("name,quartic", [
        (case, q) for case, q in _instances_for_all_cases()
    ])
    def test_case_label_nature_and_oracle(self, name, quartic):
        cls = classify_quartic(quartic)
        assert cls.case is _case(name)
        count, mults = NATURE_STRUCTURE[cls.nature]
        rs = solve(quartic)
        assert rs.real_count == count
        assert tuple(sorted(rs.multiplicities)) == mults
        if cls.closed_form_roots is not None:
            coeffs = [1.0, quartic.a, quartic.b, quartic.c, quartic.d]
            for (value, mult), oracle_root in zip(cls.closed_form_roots.roots, rs.roots):
                assert value == pytest.approx(oracle_root[0], abs=1e-6)
                assert mult == oracle_root[1]
                assert abs(quartic(value)) <= 1e-8 * eval_scale(coeffs, value)

    def test_exactly_one_case_per_sample(self, rng):
        # exhaustiveness on random samples: classify always answers
        for _ in range(2000):
            a, b, c, d = rng.uniform(-10, 10, size=4)
            cls = classify_quartic(Quartic(a, b, c, d))
            assert cls.case in ClassificationCase


class TestClassifyExamples:
    def test_worked_example_1(self):
        cls = classify_quartic(EX1)
        assert cls.case is ClassificationCase.XVII
        assert cls.nature is Nature.FOUR_DISTINCT_REAL

    def test_quadruple(self):
        cls = classify_quartic(Quartic(4.0, 6.0, 4.0, 1.0))
        assert cls.case is ClassificationCase.XI
        assert cls.nature is Nature.QUADRUPLE_ROOT
        assert cls.closed_form_roots.roots == ((-1.0, 4),)

    def test_two_double_pairs(self):
        cls = classify_quartic(Quartic(0.0, -2.0, 0.0, 1.0))
        assert cls.case is ClassificationCase.XXVI
        assert cls.nature is Nature.TWO_DOUBLE_PAIRS
        assert cls.closed_form_roots.roots == ((-1.0, 2), (1.0, 2))

    def test_triple_plus_single(self):
        cls = classify_quartic(Quartic(0.0, -6.0, 8.0, -3.0))
        assert cls.case is ClassificationCase.XXIII
        assert cls.nature is Nature.TRIPLE_PLUS_SINGLE
        values = cls.closed_form_roots.roots
        assert values[0][0] == pytest.approx(-3.0, rel=1e-12) and values[0][1] == 1
        assert values[1][0] == pytest.approx(1.0, rel=1e-12) and values[1][1] == 3

    def test_double_pair_positions(self):
        # d = d2 tangency: above C0 the shallower minimum sits right
        thr = quartic_thresholds(Quartic(0.0, -2.0, 0.5, 0.0))
        high = classify_quartic(Quartic(0.0, -2.0, 0.5, thr.d_roots[1]))
        assert high.case is ClassificationCase.XVI
        assert high.position is DoublePairPosition.HIGHEST_TWO
        rs = solve(Quartic(0.0, -2.0, 0.5, thr.d_roots[1]))
        assert rs.multiplicities == (1, 1, 2)

        thr = quartic_thresholds(Quartic(0.0, -2.0, -0.5, 0.0))
        low = classify_quartic(Quartic(0.0, -2.0, -0.5, thr.d_roots[1]))
        assert low.position is DoublePairPosition.LOWEST_TWO
        rs = solve(Quartic(0.0, -2.0, -0.5, thr.d_roots[1]))
        assert rs.multiplicities == (2, 1, 1)

        mid = classify_quartic(Quartic(0.0, -2.0, 0.5, thr.d_roots[2]))
        assert mid.case is ClassificationCase.XVIII
        assert mid.position is DoublePairPosition.MIDDLE_TWO


class TestExactMode:
    def test_exact_boundary_two_double_pairs(self):
        q = Quartic(Fraction(0), Fraction(-2), Fraction(0), Fraction(1))
        cls = classify_quartic(q)
        assert cls.case is ClassificationCase.XXVI
        assert all(c.fragile == (c.value == 0) for c in cls.comparisons)

    def test_exact_interior_four_distinct(self):
        q = Quartic(Fraction(3), Fraction(2), Fraction(-1), Fraction(-19, 20))
        cls = classify_quartic(q)
        assert cls.case is ClassificationCase.XVII
        assert not any(c.fragile for c in cls.comparisons)

    def test_exact_c0_branch(self):
        a, b = Fraction(1), Fraction(-1)
        c0 = -a ** 3 / 8 + a * b / 2
        thr = quartic_thresholds(Quartic(a, b, c0, Fraction(0)))
        dag, til = thr.d_dagger, thr.d_tilde
        assert isinstance(dag, Fraction) and isinstance(til, Fraction)
        assert classify_quartic(Quartic(a, b, c0, dag)).case is ClassificationCase.XXVI
        mid = (dag + til) / 2
        assert classify_quartic(Quartic(a, b, c0, mid)).case is ClassificationCase.XXVII
        assert classify_quartic(Quartic(a, b, c0, til)).case is ClassificationCase.XXVIII

    def test_fraction_of_numpy_integers(self):
        # numpy numerators would wrap at 2^63 and their bools do not subtract
        big = Fraction(np.int64(2 ** 40))
        cls = classify_quartic(Quartic(big, 0, 0, 0))
        assert cls == classify_quartic(Quartic(Fraction(2 ** 40), 0, 0, 0))
        assert type(Quartic(Fraction(np.int64(3), np.int64(7)), 0, 0, 0).a.denominator) is int

    def test_mixed_int_float_input_is_a_float_quartic(self):
        mixed = classify_quartic(Quartic(3, 2, -1, -0.95))
        floaty = classify_quartic(Quartic(3.0, 2.0, -1.0, -0.95))
        assert mixed.case is floaty.case and mixed.comparisons == floaty.comparisons
        thr = mixed.thresholds
        assert thr == floaty.thresholds
        values = (thr.c_mid, thr.c_hi, thr.c_lo, *thr.abc, *thr.d_roots, thr.d_dagger,
                  thr.d_tilde)
        assert all(type(v) is float for v in values if v is not None)

    def test_float_boundary_matches_exact_verdict(self):
        exact = classify_quartic(
            Quartic(Fraction(0), Fraction(-2), Fraction(0), Fraction(1)))
        floaty = classify_quartic(Quartic(0.0, -2.0, 0.0, 1.0))
        assert exact.case is floaty.case


class TestBoundaryAudit:
    """The comparisons of classify_quartic, each with its tolerance-unit margin."""

    @staticmethod
    def flagged(comparisons):
        return {c.name for c in comparisons if c.fragile}

    def test_exact_boundary_flags_all(self):
        comparisons = classify_quartic(Quartic(4.0, 6.0, 4.0, 1.0)).comparisons
        assert len(comparisons) == 3
        assert self.flagged(comparisons) == {
            "b_vs_3a2_over_8", "c_vs_C0", "d_vs_a4_over_256"}

    def test_interior_sample_has_no_flags(self):
        assert not self.flagged(classify_quartic(EX1).comparisons)

    def test_near_d2_flags_the_discriminant_comparison(self):
        # at the default eps=1e-9 a 4-decimal rounding of d2 sits ~1e2
        # tolerance units away; the flag fires at the coarser eps=1e-6
        q = Quartic(3.0, 2.0, -1.0, -0.9288)
        assert "d_vs_droots_via_disc" in self.flagged(
            classify_quartic(q, Tolerance(1e-6)).comparisons)
        strict = classify_quartic(q).comparisons
        tightest = min(strict, key=lambda c: abs(c.margin_units))
        assert tightest.name == "d_vs_droots_via_disc"

    def test_tolerance_is_configurable(self):
        loose = Tolerance(1e-2)
        # at eps=1e-2 everything is near a boundary
        assert self.flagged(classify_quartic(EX1, loose).comparisons)


class TestTheoremThreeIff:
    def test_constructed_distinct_roots_classify_four_distinct(self, rng):
        for _ in range(300):
            roots = rng.uniform(-5, 5, size=4)
            if min(np.diff(np.sort(roots))) < 1e-3:
                continue
            q = Quartic(*quartic_coeffs_from_roots(*roots))
            cls = classify_quartic(q)
            if any(c.fragile for c in cls.comparisons):
                continue  # within tolerance of a boundary stratum
            assert cls.case in (ClassificationCase.XVII, ClassificationCase.XXVII)
            assert cls.nature is Nature.FOUR_DISTINCT_REAL

    def test_classified_four_distinct_has_four_oracle_roots(self, rng):
        found = 0
        for _ in range(3000):
            a, b, c, d = rng.uniform(-10, 10, size=4)
            q = Quartic(a, b, c, d)
            if classify_quartic(q).nature is Nature.FOUR_DISTINCT_REAL:
                found += 1
                rs = solve(q)
                assert rs.real_count == 4 and rs.multiplicities == (1, 1, 1, 1)
        assert found > 20  # the sweep actually exercised the property


def _planted_quartic(rng):
    """A rational quartic with planted real roots k/1, k/2 or k/3 (k in -4..4),
    some of them repeated, times 0 to 2 quadratic factors with no real roots."""
    small = lambda: Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
    quadratics = int(rng.integers(0, 3))
    roots = []
    for _ in range(4 - 2 * quadratics):
        repeat = roots and rng.random() < 0.5
        roots.append(roots[int(rng.integers(len(roots)))] if repeat else small())
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = np.polymul(coeffs, [1, -r])
    for _ in range(quadratics):
        p = small()
        coeffs = np.polymul(coeffs, [1, p, p * p / 4 + abs(small()) + Fraction(1, 3)])
    return Quartic(*coeffs[1:]), roots


class TestSturmCrossCheck:
    def test_nature_count_matches_sturm(self, rng):
        checked = 0
        for _ in range(500):
            a, b, c, d = rng.uniform(-10, 10, size=4)
            q = Quartic(a, b, c, d)
            cls = classify_quartic(q)
            if any(c.fragile for c in cls.comparisons):
                continue
            checked += 1
            count = distinct_real_root_count([1, *map(Fraction, (a, b, c, d))])
            assert count == len(NATURE_STRUCTURE[cls.nature][1])
        assert checked > 450

    def test_exact_count_on_planted_roots(self, rng):
        # repeated roots and complex pairs included: the exact chain counts
        # distinct real roots also where the discriminant vanishes
        natures = set()
        for _ in range(3000):
            q, roots = _planted_quartic(rng)
            cls = classify_quartic(q)
            natures.add(cls.nature)
            planted = tuple(sorted(Counter(roots).values()))
            assert NATURE_STRUCTURE[cls.nature][1] == planted, q
            assert distinct_real_root_count([1, q.a, q.b, q.c, q.d]) == len(planted), q
        assert natures == set(Nature)


class TestDegenerateThresholds:
    # a = 0, b = 0 collapses C1 = C2 = C0 = 0; the b = 3a^2/8 rows apply
    @pytest.mark.parametrize("coeffs,case,nature", [
        ((0, 0, 1, 1), "vii", Nature.NO_REAL),
        ((0, 0, 1, -1), "ix", Nature.TWO_DISTINCT_REAL),
        ((0, 0, 0, 1), "x", Nature.NO_REAL),
        ((0, 0, 0, 0), "xi", Nature.QUADRUPLE_ROOT),
        ((0, 0, 0, -1), "xii", Nature.TWO_DISTINCT_REAL),
    ])
    def test_zero_ab_routing(self, coeffs, case, nature):
        cls = classify_quartic(Quartic(*[float(x) for x in coeffs]))
        assert cls.case is _case(case)
        assert cls.nature is nature
        count, mults = NATURE_STRUCTURE[nature]
        rs = solve(Quartic(*[float(x) for x in coeffs]))
        assert rs.real_count == count
        assert tuple(sorted(rs.multiplicities)) == mults

    def test_pure_translate_family_single_stationary_point(self):
        # x^4 + cx + d has one stationary point for c != 0: never four real roots
        from polyclass.quartic import _ZERO_DISC_NATURES

        thr = quartic_thresholds(Quartic(0.0, 0.0, 1.0, 0.0))
        assert len(thr.d_roots) == 1
        d0 = thr.d_roots[0]
        cls = classify_quartic(Quartic(0.0, 0.0, 1.0, d0))
        assert cls.case is _case("viii")
        assert cls.nature in _ZERO_DISC_NATURES


#: one quartic per nature
ONE_PER_NATURE = {
    Nature.NO_REAL: (0, 0, 0, 1),  # x^4 + 1
    Nature.TWO_EQUAL_REAL: (-2, 2, -2, 1),  # (x - 1)^2 (x^2 + 1)
    Nature.TWO_DISTINCT_REAL: (0, 0, 0, -1),  # x^4 - 1
    Nature.FOUR_DISTINCT_REAL: (3, 2, -1, -0.95),
    Nature.FOUR_REAL_DOUBLE_PAIR: (-1, -7, 13, -6),  # (x - 1)^2 (x - 2)(x + 3)
    Nature.TWO_DOUBLE_PAIRS: (0, -2, 0, 1),  # (x^2 - 1)^2
    Nature.TRIPLE_PLUS_SINGLE: (0, -6, 8, -3),  # (x - 1)^3 (x + 3)
    Nature.QUADRUPLE_ROOT: (4, 6, 4, 1),  # (x + 1)^4
}


class TestNatureFacts:
    def test_zero_disc_natures_are_the_repeated_root_natures(self):
        assert quartic_mod._ZERO_DISC_NATURES == {
            Nature.TWO_EQUAL_REAL,
            Nature.FOUR_REAL_DOUBLE_PAIR,
            Nature.TWO_DOUBLE_PAIRS,
            Nature.TRIPLE_PLUS_SINGLE,
            Nature.QUADRUPLE_ROOT,
        }

    @pytest.mark.parametrize("nature", list(Nature))
    def test_verdict_roots_are_the_closed_form_else_the_oracle(self, nature):
        q = Quartic(*map(float, ONE_PER_NATURE[nature]))
        cls = classify_quartic(q)
        assert cls.nature is nature
        roots, source = quartic_mod._verdict_roots(cls)
        if nature is Nature.NO_REAL:
            assert roots is None and source is None
        elif nature in (Nature.TWO_DISTINCT_REAL, Nature.FOUR_DISTINCT_REAL):
            assert cls.closed_form_roots is None and source == "bracketed"
            reference = solve(q)
            assert roots.complex_pairs == reference.complex_pairs
            assert_roots_agree(roots.roots, reference.roots, q.coefficients())
            assert roots.residuals == tuple(abs(q(x)) for x in roots.values)
        else:
            assert roots is not None and roots is cls.closed_form_roots
            assert source == "closed_form"
        count, _ = NATURE_STRUCTURE[nature]
        assert (0 if roots is None else roots.real_count) == count


def _exact_sign(coeffs, x: float) -> int:
    """The sign of the monic quartic with float coefficients coeffs at x, exactly."""
    x, value = Fraction(x), Fraction(1)
    for c in coeffs:
        value = value * x + Fraction(c)
    return (value > 0) - (value < 0)


def _scaled(coeffs, k: int):
    """(2^k a, 4^k b, 8^k c, 16^k d): the quartic whose roots are 2^k times coeffs', exactly."""
    return tuple(math.ldexp(c, k * (i + 1)) for i, c in enumerate(coeffs))


class TestBracketedRoots:
    """The real roots of the open natures, isolated by Viete stationary points and a
    root bound, against exact sign changes and against oracle.solve."""

    @settings(max_examples=300, deadline=None)
    @given(count=st.sampled_from([2, 4]),
           start=st.floats(-4.0, 4.0),
           gaps=st.lists(st.floats(0.25, 3.0), min_size=3, max_size=3),
           near=st.none() | st.tuples(st.integers(0, 2), st.floats(3.0, 6.0)),
           pair=st.tuples(st.floats(-3.0, 3.0), st.floats(0.25, 3.0)),
           k=st.integers(-20, 20))
    def test_roots_match_the_oracle_and_change_sign(self, count, start, gaps, near, pair, k):
        roots = [start]
        for gap in gaps[:count - 1]:
            roots.append(roots[-1] + gap)
        spread = 1.0
        if near is not None:
            i = near[0] % (count - 1)
            spread = 10.0 ** -near[1]
            roots[i + 1] = roots[i] + spread * (1.0 + abs(roots[i]))
            roots.sort()
        if count == 4:
            coeffs = quartic_coeffs_from_roots(*roots)
            nature = Nature.FOUR_DISTINCT_REAL
        else:
            # (x - r1)(x - r2)(x^2 - 2ux + u^2 + v^2)
            (r1, r2), (u, v) = roots, pair
            e, f, g, h = -(r1 + r2), r1 * r2, -2.0 * u, u * u + v * v
            coeffs = (e + g, f + e * g + h, e * h + f * g, f * h)
            nature = Nature.TWO_DISTINCT_REAL
        reference = solve(Quartic(*coeffs))
        desc = (1.0, *coeffs)
        a, b, c, d = _scaled(coeffs, k)
        for sign, q in ((1, Quartic(a, b, c, d)), (-1, Quartic(-a, b, -c, d))):
            rs = quartic_mod._bracketed_roots(q, nature, quartic_mod.DEFAULT_TOL)
            if rs is None:
                # p at a stationary point between roots 1e-6 apart can sit within
                # the evaluation noise, where only the oracle may judge
                assert spread < 1e-5
                continue
            assert rs.multiplicities == (1,) * count and rs.complex_pairs == (4 - count) // 2
            assert rs.residuals == tuple(abs(q(x)) for x in rs.values)
            found = sorted(sign * math.ldexp(x, -k) for x in rs.values)  # back to coeffs' roots
            for x in found:
                step = root_gap_bound(desc, x)
                assert _exact_sign(coeffs, x - step) * _exact_sign(coeffs, x + step) < 0
            if spread >= 1e-4:  # else the oracle may merge the pair (its cluster_tol)
                assert_roots_agree([(x, 1) for x in found], reference.roots, desc)


class TestFloatVsExactAgreement:
    def test_dyadic_samples_agree_off_the_fragile_shell(self, rng):
        # the float cascade and the exact cascade must agree wherever the
        # float margins are solid
        for _ in range(300):
            vals = [Fraction(float(v)).limit_denominator(512)
                    for v in rng.uniform(-10, 10, size=4)]
            exact_cls = classify_quartic(Quartic(*vals))
            float_cls = classify_quartic(Quartic(*[float(v) for v in vals]))
            if any(c.fragile for c in float_cls.comparisons):
                continue
            assert float_cls.case is exact_cls.case

    def test_overflowing_coefficients_raise(self):
        with pytest.raises(OverflowError):
            classify_quartic(Quartic(1e200, 1.0, 1.0, 1e200))


def _quadruple_scaled(r: float, k: int) -> Quartic:
    """(x - r 2^k)^4: a quadruple root weighted-scaled by 2^k."""
    s = 2.0 ** k
    return Quartic(-4 * r * s, 6 * r * r * s ** 2, -4 * r ** 3 * s ** 3, r ** 4 * s ** 4)


class TestLazyThresholds:
    def test_built_once_on_first_read(self, monkeypatch):
        calls = []
        original = quartic_mod.quartic_thresholds

        def counted(q, tol=quartic_mod.DEFAULT_TOL):
            calls.append(q)
            return original(q, tol)

        monkeypatch.setattr(quartic_mod, "quartic_thresholds", counted)
        tol = Tolerance(1e-7)
        for q in (EX1, EX2, Quartic(Fraction(3), Fraction(2), Fraction(-1), Fraction(-19, 20))):
            calls.clear()
            cls = classify_quartic(q, tol)
            assert calls == []
            first = cls.thresholds
            assert calls == [q]
            assert cls.thresholds is first
            assert calls == [q]
            assert first == original(q, tol)

    def test_not_a_constructor_field(self):
        import dataclasses

        names = [f.name for f in dataclasses.fields(quartic_mod.QuarticClassification)]
        assert "thresholds" not in names
        # the classified quartic rides along without entering equality or repr
        cls = classify_quartic(EX1)
        assert "_source" not in repr(cls)
        assert cls == classify_quartic(EX1)

    @pytest.mark.parametrize("k", [84, 90, 100])
    def test_overflowed_thresholds_raise(self, k):
        # the d-cubic's C overflows to NaN for these scales
        with pytest.raises(OverflowError):
            quartic_thresholds(_quadruple_scaled(1.5, k))

    @pytest.mark.parametrize("k", [84, 90, 100])
    def test_classification_without_thresholds_still_answers(self, k):
        cls = classify_quartic(_quadruple_scaled(1.5, k))
        assert cls.nature is Nature.QUADRUPLE_ROOT
        assert any(c.fragile for c in cls.comparisons)
        with pytest.raises(OverflowError):
            cls.thresholds


#: coefficients with denominators up to 10^6, and roots that repeat often
coefficient_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=10 ** 6)
small_roots = st.sampled_from([Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3, 7)])


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[coefficient_fractions] * 4),
       st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000))
def test_coefficient_predicates_are_weighted_homogeneous(coeffs, lam):
    assert {"d_vs_d_tilde", "d_vs_d_dagger"} <= set(quartic_mod._COMPARISONS)
    # the cubic's table rides on the same lattice: its weights must hold too
    for point, table in ((quartic_mod._Coeffs, quartic_mod._COMPARISONS),
                         (cubic_mod._Point, cubic_mod._COMPARISONS)):
        values = coeffs[:len(point._fields)]
        q = point(*values)
        scaled = point(*(lam ** w * v for w, v in enumerate(values, 1)))
        for name, (terms, weight) in table.items():
            assert terms(scaled) == tuple(lam ** weight * t for t in terms(q)), name


def _reference_compare(tol, terms):
    """The exact comparison as a sum of Fraction terms, converted to float; the
    margin is value / (eps * max(max |float(t)|, MIN_NORMAL)), +-inf or 0 when
    that denominator is 0."""
    total = sum(terms)
    value = float(total)
    scale = max((abs(float(t)) for t in terms), default=0.0)
    s = (total > 0) - (total < 0)
    denom = tol.eps * max(scale, MIN_NORMAL)
    if denom == 0.0:
        margin = math.inf if value > 0 else (-math.inf if value < 0 else 0.0)
    else:
        margin = value / denom
    return s, value, margin, s == 0


def _reference_d_cubic_terms(name, q):
    """Terms of the two d-comparisons from the division form of the d-cubic on
    Fractions, written out here independently of the library's."""
    a, b, c, d = q.a, q.b, q.c, q.d
    A = (-27 * a ** 4 / 128 + 9 * a ** 2 * b / 8 - 3 * a * c / 2 - b ** 2) / 2
    B = (9 * a ** 3 * b * c / 8 - a ** 2 * b ** 3 / 4 - 3 * a ** 2 * c ** 2 / 8
         - 5 * a * b ** 2 * c + b ** 4 + 9 * b * c ** 2) / 16
    C = (-a ** 3 * c ** 3 + a ** 2 * b ** 2 * c ** 2 / 4 + 9 * a * b * c ** 3 / 2
         - b ** 3 * c ** 2 - 27 * c ** 4 / 4) / 64
    if name == "d_vs_d_tilde":  # sign(d - d_tilde) scaled by A^2 - 3B > 0
        return (A * A * d, -3 * B * d, A * A * A, -4 * A * B, 9 * C)
    return (2 * A * A * d, -6 * B * d, -9 * C, A * B)  # d - d_dagger, by 2(A^2 - 3B)


def _reference_classify(q, tol):
    """Case and comparisons of classify_quartic, every predicate on Fraction terms."""
    qf = Quartic(*(Fraction(v) for v in (q.a, q.b, q.c, q.d)))
    out = []

    def sign(name):
        if name in ("d_vs_d_tilde", "d_vs_d_dagger"):
            terms = _reference_d_cubic_terms(name, qf)
        else:
            terms = quartic_mod._ON_COEFFS[name](qf)
        s, value, margin, fragile = _reference_compare(tol, terms)
        out.append((name, value.hex(), margin.hex(), fragile))
        return s

    return quartic_mod._cascade(sign), out


@st.composite
def rational_quartics(draw):
    """Rational quartics on and off the zero-discriminant strata, weighted-scaled by 2^k."""
    kind = draw(st.sampled_from(["coefficients", "roots", "quadratics"]))
    if kind == "coefficients":
        a, b, c, d = (draw(coefficient_fractions) for _ in range(4))
    elif kind == "roots":  # repeated rational roots put the quartic on a stratum
        a, b, c, d = quartic_coeffs_from_roots(*(draw(small_roots) for _ in range(4)))
    else:  # (x^2 + p x + r)(x^2 + s x + t): complex or double pairs
        p, r = draw(small_roots), draw(small_roots)
        s, t = draw(st.sampled_from([(p, r), (draw(small_roots), draw(small_roots))]))
        a, b, c, d = p + s, r + t + p * s, p * t + r * s, r * t
    lam = Fraction(2) ** draw(st.integers(-40, 40))
    coeffs = (lam * a, lam ** 2 * b, lam ** 3 * c, lam ** 4 * d)
    if draw(st.booleans()):  # the same quartic on its integer lattice point
        point, _ = _lattice(Quartic._values(Quartic(*coeffs)), quartic_mod._Coeffs)
        coeffs = tuple(point)
    return Quartic(*coeffs)


@settings(max_examples=300, deadline=None)
@given(rational_quartics(), st.sampled_from([1e-9, 1e-6]))
def test_lattice_comparisons_equal_fraction_comparisons(q, eps):
    tol = Tolerance(eps)
    try:
        case, expected = _reference_classify(q, tol)
    except OverflowError:  # a comparison beyond the float range
        with pytest.raises(OverflowError):
            classify_quartic(q, tol)
        return
    cls = classify_quartic(q, tol)
    assert cls.case is case
    got = [(c.name, c.value.hex(), c.margin_units.hex(), c.fragile) for c in cls.comparisons]
    assert got == expected


def test_lattice_of_mixed_or_float_quartics_is_none():
    assert _lattice(Quartic._values(Quartic(1.0, 2, 3, 4)), quartic_mod._Coeffs) is None
    q = Quartic(Fraction(1, 2), 1, Fraction(1, 3), 0)
    point, lam = _lattice(Quartic._values(q), quartic_mod._Coeffs)
    assert lam == 4 * 6  # the lcm of the denominators, times 4 for the d-cubic
    assert tuple(point) == (12, 576, 4608, 0)


#: Fraction methods that do arithmetic or ordering (conversions and equality excluded)
_FRACTION_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "__floordiv__", "__mod__", "__pow__", "__rpow__", "__neg__", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__",
)


@pytest.mark.parametrize("coeffs, d_names", [
    # c = C0 below 3a^2/8: two double pairs at d = d_dagger
    ((0, -2, 0, 1), ["d_vs_d_dagger"]),
    # band edge c = C1: (x - 1/2)^3 (x + 3/2), where d = d_dagger < d_tilde
    ((0, Fraction(-3, 2), 1, Fraction(-3, 16)), ["d_vs_d_tilde", "d_vs_d_dagger"]),
])
def test_exact_classification_does_no_fraction_arithmetic(monkeypatch, coeffs, d_names):
    q = Quartic(*map(Fraction, coeffs))
    expected = _reference_classify(q, quartic_mod.DEFAULT_TOL)
    calls = []
    for name in _FRACTION_ARITHMETIC:
        original = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    cls = classify_quartic(q)
    thr = cls.thresholds
    assert calls == []
    monkeypatch.undo()
    assert [c.name for c in cls.comparisons][-len(d_names):] == d_names
    got = [(c.name, c.value.hex(), c.margin_units.hex(), c.fragile) for c in cls.comparisons]
    assert (cls.case, got) == expected
    assert thr.d_dagger == q.d  # both quartics sit on d = d_dagger
