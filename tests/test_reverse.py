"""Reverse-engineering: admissible coefficient sets and round-trip synthesis."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyclass import (
    Admissible,
    DoublePairPosition,
    NatureTarget,
    Nature,
    Quartic,
    Unachievable,
    admissible_b_range,
    admissible_c_range,
    admissible_d_range,
    classify_quartic,
    quartic_thresholds,
    solve,
    synthesize,
)
from polyclass import quartic as quartic_mod
from polyclass.quartic import NATURE_STRUCTURE

ALL_NATURES = tuple(Nature)
POINT_NATURES = (
    Nature.TWO_EQUAL_REAL,
    Nature.FOUR_REAL_DOUBLE_PAIR,
    Nature.TWO_DOUBLE_PAIRS,
    Nature.TRIPLE_PLUS_SINGLE,
    Nature.QUADRUPLE_ROOT,
)


class TestAdmissibleB:
    def test_four_distinct_needs_b_below_threshold(self):
        adm = admissible_b_range(5.0, Nature.FOUR_DISTINCT_REAL)
        assert adm.intervals == ((None, 75.0 / 8.0),)
        assert adm.points == ()

    def test_quadruple_is_a_point(self):
        adm = admissible_b_range(4.0, Nature.QUADRUPLE_ROOT)
        assert adm.points == (6.0,)

    def test_two_double_pairs_at_zero(self):
        adm = admissible_b_range(0.0, Nature.TWO_DOUBLE_PAIRS)
        assert adm.intervals == ((None, 0.0),)

    def test_no_real_gets_complement(self):
        adm = admissible_b_range(2.0, Nature.NO_REAL)
        assert adm.intervals == ((1.5, None),)


class TestAdmissibleC:
    def test_four_distinct_band(self):
        adm = admissible_c_range(3.0, 2.0, Nature.FOUR_DISTINCT_REAL)
        lo, hi = adm.intervals[0]
        assert lo == pytest.approx(-1.2526, abs=5e-5)
        assert hi == pytest.approx(0.5026, abs=5e-5)

    def test_two_double_pairs_is_c0(self):
        adm = admissible_c_range(0.0, -2.0, Nature.TWO_DOUBLE_PAIRS)
        assert adm.points == (0.0,)

    def test_triple_band_edges(self):
        adm = admissible_c_range(0.0, -6.0, Nature.TRIPLE_PLUS_SINGLE)
        assert sorted(float(p) for p in adm.points) == pytest.approx([-8.0, 8.0], rel=1e-12)

    def test_positions_split_the_band(self):
        low = admissible_c_range(0.0, -2.0, Nature.FOUR_REAL_DOUBLE_PAIR,
                                 DoublePairPosition.LOWEST_TWO)
        high = admissible_c_range(0.0, -2.0, Nature.FOUR_REAL_DOUBLE_PAIR,
                                  DoublePairPosition.HIGHEST_TWO)
        assert low.intervals[0][1] == 0.0 and high.intervals[0][0] == 0.0

    @pytest.mark.parametrize("a, b", [(3.0, 2.0), (Fraction(3), Fraction(2)),
                                      (Fraction(-7, 3), Fraction(-5, 4))])
    def test_builds_no_d_cubic(self, monkeypatch, a, b):
        from polyclass import quartic

        built = []
        original = quartic._d_cubic
        monkeypatch.setattr(quartic, "_d_cubic", lambda *abc: built.append(abc) or original(*abc))
        q0 = Quartic(a, b, 0, 0)
        thr = quartic.quartic_thresholds(q0)
        built.clear()
        for nature in (Nature.FOUR_DISTINCT_REAL, Nature.TWO_DOUBLE_PAIRS,
                       Nature.TRIPLE_PLUS_SINGLE, Nature.FOUR_REAL_DOUBLE_PAIR):
            admissible_c_range(a, b, nature)
        assert built == []
        # the c thresholds are those of quartic_thresholds
        assert admissible_c_range(a, b, Nature.FOUR_DISTINCT_REAL).intervals == (
            (thr.c_lo, thr.c_hi),)
        assert admissible_c_range(a, b, Nature.TWO_DOUBLE_PAIRS).points == (thr.c_mid,)

    @pytest.mark.parametrize("b", [0.0, -2.0, Fraction(0), Fraction(-2)])
    def test_two_equal_leaves_out_c0_at_or_below_b_threshold(self, b):
        # no two-equal case has c = C0 unless b > 3a^2/8 (cases x-xii, xxv-xxix):
        # the c-line is cut there, and a pick off C0 round-trips
        adm = admissible_c_range(0, b, Nature.TWO_EQUAL_REAL)
        assert adm.intervals == ((0, None), (None, 0)) and adm.points == ()
        q = synthesize(NatureTarget(Nature.TWO_EQUAL_REAL, a=0.0, b=float(b)))
        assert q.c != 0 and classify_quartic(q).nature is Nature.TWO_EQUAL_REAL
        assert admissible_c_range(0, 1, Nature.TWO_EQUAL_REAL).intervals == ((None, None),)

    def test_unachievable_without_triangle(self):
        with pytest.raises(Unachievable):
            admissible_c_range(0.0, 1.0, Nature.FOUR_DISTINCT_REAL)
        with pytest.raises(Unachievable):
            admissible_c_range(2.0, 0.0, Nature.QUADRUPLE_ROOT)


class TestAdmissibleD:
    def test_four_distinct_window(self):
        adm = admissible_d_range(3.0, 2.0, -1.0, Nature.FOUR_DISTINCT_REAL)
        lo, hi = adm.intervals[0]
        assert lo == pytest.approx(-1.0000, abs=5e-5)
        assert hi == pytest.approx(-0.9288, abs=5e-5)

    def test_four_distinct_window_where_the_d_roots_crowd(self):
        # c inside the band and b near 3a^2/8: the three d-roots, near 9915, lie
        # 0.09 and 0.23 apart, so the d-cubic's A^2 - 3B is 9e-11 A^2 and reads zero
        # within the tolerance.  Its own formulas see one d-root there, and the
        # window would shrink to a point.  The stationary points of p (9.4, 9.9
        # and 10.7) stand well apart, and p there parts the three d-roots
        a, b, c = -40.0, 599.1307665254511, -3982.7914159326765
        adm = admissible_d_range(a, b, c, Nature.FOUR_DISTINCT_REAL)
        [(lo, hi)] = adm.intervals
        assert lo == pytest.approx(9914.8285, abs=1e-4)
        assert hi == pytest.approx(9914.9152, abs=1e-4)
        # the ends are sign changes of the exact d-cubic (disc/256) of these floats
        A, B, C = quartic_mod._d_cubic(*map(Fraction, (a, b, c)))

        def d_cubic(d):
            return ((d + A) * d + B) * d + C

        for d in (Fraction(lo), Fraction(hi)):
            nudge = d * Fraction(1, 10 ** 14)
            assert d_cubic(d - nudge) * d_cubic(d + nudge) < 0
        two = Nature.TWO_DISTINCT_REAL
        for d, nature in (((lo + hi) / 2, Nature.FOUR_DISTINCT_REAL),
                          (lo - 0.01, two), (hi + 0.01, two)):
            assert classify_quartic(Quartic(*map(Fraction, (a, b, c, d)))).nature is nature
        thr = quartic_thresholds(Quartic(a, b, c, 0.0))
        assert thr.d_roots[1:] == (hi, lo) and thr.d_roots[0] == pytest.approx(9915.1466, abs=1e-4)
        target = NatureTarget(Nature.FOUR_DISTINCT_REAL, a=Fraction(-40), strategy="random",
                              seed=2516, exact=True)
        assert classify_quartic(synthesize(target)).nature is Nature.FOUR_DISTINCT_REAL

    def test_quadruple_point(self):
        adm = admissible_d_range(4.0, 6.0, 4.0, Nature.QUADRUPLE_ROOT)
        assert adm.points == (1.0,)

    def test_triple_point_from_expansion(self):
        adm = admissible_d_range(0.0, -6.0, 8.0, Nature.TRIPLE_PLUS_SINGLE)
        assert float(adm.points[0]) == pytest.approx(-3.0, rel=1e-9)

    def test_unachievable_two_equal_at_c0(self):
        with pytest.raises(Unachievable):
            admissible_d_range(3.0, 2.0, -0.375, Nature.TWO_EQUAL_REAL)

    @pytest.mark.parametrize("a, b, c", [(4.0, 6.0, 4.0), (Fraction(4), Fraction(6), Fraction(4))])
    def test_no_two_equal_on_the_quadruple_line(self, a, b, c):
        # b = 3a^2/8 and c = a^3/16: the d-line holds cases x-xii, with d0 = a^4/256
        # the quadruple root, and no two-equal case
        with pytest.raises(Unachievable, match="two_equal_real"):
            admissible_d_range(a, b, c, Nature.TWO_EQUAL_REAL)
        assert admissible_d_range(a, b, c, Nature.QUADRUPLE_ROOT).points == (1,)
        assert admissible_d_range(a, b, c, Nature.NO_REAL).intervals == ((1, None),)
        assert admissible_d_range(a, b, c, Nature.TWO_DISTINCT_REAL).intervals == ((None, 1),)

    def test_crossed_float_thresholds_keep_the_band_edge_order(self):
        # on this float band edge the d-cubic's A^2 - 3B cancels to 1.7e-7 of A^2,
        # and the float d_dagger exceeds d_tilde, though exactly d_dagger < d_tilde:
        # the cells keep the band edge's order, so the interval comes out inverted
        a, b, c = 11.0, 45.3515625, 83.056640625
        thr = quartic_thresholds(Quartic(a, b, c, 0.0))
        assert thr.d_dagger > thr.d_tilde
        adm = admissible_d_range(a, b, c, Nature.TWO_DISTINCT_REAL)
        assert adm.intervals == ((thr.d_dagger, thr.d_tilde), (None, thr.d_dagger))
        assert admissible_d_range(a, b, c, Nature.TRIPLE_PLUS_SINGLE).points == (thr.d_dagger,)

    def test_two_distinct_at_c0_above_b_threshold(self):
        # a = 0, b > 0, c = 0 puts c on C0 with one d-root, d_tilde, as bound
        adm = admissible_d_range(0.0, 1.0, 0.0, Nature.TWO_DISTINCT_REAL)
        assert adm.intervals == ((None, 0.0),)
        q = synthesize(NatureTarget(Nature.TWO_DISTINCT_REAL, a=0.0))
        assert classify_quartic(q).nature is Nature.TWO_DISTINCT_REAL

    def test_two_distinct_has_bounded_piece_inside_band(self):
        adm = admissible_d_range(3.0, 2.0, -1.0, Nature.TWO_DISTINCT_REAL)
        assert len(adm.intervals) == 2
        (lo1, hi1), (lo2, hi2) = adm.intervals
        assert lo1 is not None and hi1 is not None and lo2 is None

    @pytest.mark.parametrize("num", [float, Fraction])
    def test_case_xvi_places_its_pair_by_c_against_c0(self, num):
        # a = 0, b = -6 puts C0 at 0: case xvi's pair is the highest two above C0
        # and the lowest two below, so the other position has no free term
        low, high = DoublePairPosition.LOWEST_TWO, DoublePairPosition.HIGHEST_TWO
        for c, there, other in ((2, high, low), (-2, low, high)):
            a, b, c = num(0), num(-6), num(c)
            with pytest.raises(Unachievable, match=other.value):
                admissible_d_range(a, b, c, Nature.FOUR_REAL_DOUBLE_PAIR, other)
            adm = admissible_d_range(a, b, c, Nature.FOUR_REAL_DOUBLE_PAIR, there)
            assert adm.intervals == () and adm.points == (5.623684161867927,)
            cls = classify_quartic(Quartic(a, b, c, adm.points[0]))
            assert cls.nature is Nature.FOUR_REAL_DOUBLE_PAIR and cls.position is there


@st.composite
def d_line_prefixes(draw):
    """Rational (a, b, c) on every region of the d-line: b above, on or below
    3a^2/8, the last with 3a^2 - 8b = 3t^2 so that the band edges C0 +- t^3/8
    are rational; c at C0, on a band edge, strictly inside the band or outside."""
    a = Fraction(draw(st.integers(-24, 24)), draw(st.sampled_from([1, 2, 3, 4])))
    t = Fraction(draw(st.integers(1, 16)), draw(st.sampled_from([1, 2, 3])))
    b = 3 * a * a / 8 + draw(st.sampled_from([Fraction(draw(st.integers(1, 40)), 4), 0,
                                              -3 * t * t / 8]))
    half = t ** 3 / 8 if b < 3 * a * a / 8 else 0  # half the band's width
    c0 = -a ** 3 / 8 + a * b / 2
    side = draw(st.sampled_from([-1, 1]))
    off = draw(st.sampled_from([
        0, half, Fraction(draw(st.integers(1, 99)), 100) * half,
        half + Fraction(draw(st.integers(1, 40)), draw(st.sampled_from([1, 3])))]))
    return a, b, c0 + side * off


@settings(max_examples=200, deadline=None)
@given(d_line_prefixes())
@example((Fraction(4), Fraction(6), Fraction(4)))  # the quadruple line, no two-equal case
@example((Fraction(0), Fraction(0), Fraction(0)))
def test_d_line_agrees_with_the_exact_classifier(prefix):
    """admissible_d_range on rational prefixes, against classify_quartic at rational
    d: each returned piece reaches the target, and each sample that reaches it (a
    rational threshold, a point inside each cell between thresholds) lies in a
    returned piece, so Unachievable is raised just when no sample reaches it."""
    a, b, c = prefix
    thr = quartic_thresholds(Quartic(a, b, c, 0))
    ends = sorted({d for d in (*thr.d_roots, thr.d_dagger, thr.d_tilde) if d is not None})
    # three-root and one-root d-roots are floats near the irrational roots: skip the
    # draws whose cells are too narrow for them to separate
    assume(all(hi - lo > 1e-6 * max(1, abs(hi)) for lo, hi in zip(ends, ends[1:])))
    ends = [Fraction(d) for d in ends]
    samples = [ends[0] - 1, *((lo + hi) / 2 for lo, hi in zip(ends, ends[1:])), ends[-1] + 1,
               *(Fraction(d) for d in (thr.d_dagger, thr.d_tilde, *thr.d_roots)
                 if type(d) is Fraction)]
    verdicts = {}

    def reaches(d, nature, position) -> bool:
        d = Fraction(d)
        if d not in verdicts:
            verdicts[d] = classify_quartic(Quartic(a, b, c, d))
        cls = verdicts[d]
        return cls.nature is nature and (
            position is None or nature is not Nature.FOUR_REAL_DOUBLE_PAIR
            or cls.position is position)

    for nature in Nature:
        for position in (None, *DoublePairPosition):
            try:
                adm = admissible_d_range(a, b, c, nature, position)
            except Unachievable:
                assert not any(reaches(d, nature, position) for d in samples)
                continue
            for lo, hi in adm.intervals:
                inner = (hi - 1 if lo is None else lo + 1 if hi is None
                         else (Fraction(lo) + Fraction(hi)) / 2)
                assert reaches(inner, nature, position), (nature, position, lo, hi)
            for d in adm.points:
                assert type(d) is float or reaches(d, nature, position), (nature, position, d)
            for d in samples:
                if reaches(d, nature, position):
                    assert d in adm.points or any(
                        (lo is None or lo < d) and (hi is None or d < hi)
                        for lo, hi in adm.intervals), (nature, position, d)


@st.composite
def c_line_prefixes(draw):
    """Rational (a, b) with b above, on or below 3a^2/8, the last with 3a^2 - 8b =
    3t^2 so that the band edges C0 +- t^3/8 are rational, and the band's half-width."""
    a = Fraction(draw(st.integers(-24, 24)), draw(st.sampled_from([1, 2, 3, 4])))
    t = Fraction(draw(st.integers(1, 16)), draw(st.sampled_from([1, 2, 3])))
    gap = draw(st.sampled_from([-Fraction(draw(st.integers(1, 40)), 4), 0, 3 * t * t / 8]))
    return a, 3 * a * a / 8 - gap, t ** 3 / 8 if gap > 0 else 0


@settings(max_examples=150, deadline=None)
@given(c_line_prefixes())
@example((Fraction(0), Fraction(-6), Fraction(8)))  # case xvi's pair: lowest below C0
@example((Fraction(4), Fraction(6), Fraction(0)))  # the quadruple line
def test_c_line_agrees_with_the_exact_classifier(prefix):
    """admissible_c_range on rational prefixes, against exact admissible_d_range:
    each rational break (C2, C0, C1) and a rational point inside each cell lies in
    a returned piece just when some free term there reaches the target, and each
    free term returned classifies as the target, position included: exactly where
    it is rational, in floats where it is a float d-root."""
    a, b, half = prefix
    c0 = -a ** 3 / 8 + a * b / 2
    breaks = [c0 - half, c0, c0 + half] if half else [c0]
    samples = [breaks[0] - 1, *breaks, *((lo + hi) / 2 for lo, hi in zip(breaks, breaks[1:])),
               breaks[-1] + 1]

    def near(x, y) -> bool:
        return abs(x - y) <= 1e-9 * max(1, abs(x))

    def covered(adm, c) -> bool:
        return any(near(c, p) for p in adm.points) or any(
            (lo is None or lo < c and not near(c, lo)) and (hi is None or c < hi and not near(c, hi))
            for lo, hi in adm.intervals)

    def reaches(c, nature, position) -> bool:
        try:
            adm = admissible_d_range(a, b, c, nature, position)
        except Unachievable:
            return False
        inner = [Fraction(hi) - 1 if lo is None else Fraction(lo) + 1 if hi is None
                 else (Fraction(lo) + Fraction(hi)) / 2
                 for lo, hi in adm.intervals
                 # float d-roots part cells only as far as they are accurate
                 if lo is None or hi is None or hi - lo > 1e-6 * max(1, abs(hi))]
        # a float d-root makes the quartic float, read within the tolerance as
        # synthesize reads it, where no comparison but the discriminant's is
        # fragile; rational points are read exactly
        for d in [*inner, *adm.points]:
            cls = classify_quartic(Quartic(a, b, c, d))
            if any(cmp.fragile for cmp in cls.comparisons if not cmp.name.endswith("_via_disc")):
                continue
            assert cls.nature is nature, (nature, position, c, d)
            if position is not None and nature is Nature.FOUR_REAL_DOUBLE_PAIR:
                assert cls.position is position, (nature, position, c, d)
        return True

    for nature in Nature:
        for position in (None, *DoublePairPosition):
            try:
                adm = admissible_c_range(a, b, nature, position)
            except Unachievable:
                adm = Admissible()
            for p in adm.points:
                assert any(near(p, c) for c in breaks), (nature, position, p)
            for c in samples:
                assert covered(adm, c) == reaches(c, nature, position), (nature, position, c)


class TestSynthesizeExamples:
    def test_quadruple_a4(self):
        q = synthesize(NatureTarget(nature=Nature.QUADRUPLE_ROOT, a=4.0))
        assert (q.a, q.b, q.c, q.d) == (4.0, 6.0, 4.0, 1.0)

    def test_two_double_pairs_with_fixed_b(self):
        q = synthesize(NatureTarget(nature=Nature.TWO_DOUBLE_PAIRS, a=0.0, b=-2.0))
        assert (q.a, q.b, q.c, q.d) == (0.0, -2.0, 0.0, 1.0)

    def test_four_distinct_with_a5(self):
        q = synthesize(NatureTarget(nature=Nature.FOUR_DISTINCT_REAL, a=5.0))
        cls = classify_quartic(q)
        assert cls.nature is Nature.FOUR_DISTINCT_REAL
        rs = solve(q)
        assert rs.real_count == 4 and rs.multiplicities == (1, 1, 1, 1)

    def test_positions_honored(self):
        for position in DoublePairPosition:
            q = synthesize(NatureTarget(
                nature=Nature.FOUR_REAL_DOUBLE_PAIR, a=1.0, position=position))
            cls = classify_quartic(q)
            assert cls.nature is Nature.FOUR_REAL_DOUBLE_PAIR
            assert cls.position is position

    def test_unachievable_prefix(self):
        with pytest.raises(Unachievable):
            synthesize(NatureTarget(nature=Nature.QUADRUPLE_ROOT, a=4.0, b=5.0))
        with pytest.raises(Unachievable):
            synthesize(NatureTarget(nature=Nature.TWO_DOUBLE_PAIRS, a=0.0, b=1.0))


class TestRoundTrip:
    @pytest.mark.parametrize("nature", ALL_NATURES)
    def test_midpoint_strategy(self, nature):
        q = synthesize(NatureTarget(nature=nature, a=2.0))
        assert classify_quartic(q).nature is nature

    def test_two_equal_midpoint_over_integer_a(self):
        # the CLI default picks b = 3a^2/8 + 5 and c = 0, so the double root is
        # the stationary point 0 of p and d = 0 exactly; a Viete root at 1e-12 there
        # gave d = -9e-13 and a round-trip mismatch for 66 of these a
        for a in range(-50, 51):
            q = synthesize(NatureTarget(nature=Nature.TWO_EQUAL_REAL, a=float(a)))
            assert (q.c, q.d) == (0.0, 0.0)
            assert classify_quartic(q).nature is Nature.TWO_EQUAL_REAL

    @pytest.mark.parametrize("nature", ALL_NATURES)
    def test_random_strategy_float(self, nature, rng):
        for seed in range(15):
            a = float(rng.uniform(-10, 10))
            q = synthesize(NatureTarget(nature=nature, a=a,
                                        strategy="random", seed=seed))
            assert classify_quartic(q).nature is nature

    @pytest.mark.parametrize("nature", POINT_NATURES)
    def test_exact_point_natures(self, nature, rng):
        for seed in range(15):
            a = float(rng.uniform(-10, 10))
            q = synthesize(NatureTarget(nature=nature, a=a, strategy="random",
                                        seed=seed, exact=True))
            assert q.is_exact
            cls = classify_quartic(q)
            assert cls.nature is nature
            # exact boundary: the decisive comparison sits exactly on zero
            assert any(c.value == 0 for c in cls.comparisons)

    @pytest.mark.parametrize("nature", ALL_NATURES)
    def test_oracle_structure_matches(self, nature):
        q = synthesize(NatureTarget(nature=nature, a=-3.0, strategy="random", seed=7))
        count, mults = NATURE_STRUCTURE[nature]
        rs = solve(q.as_float())
        assert rs.real_count == count
        assert tuple(sorted(rs.multiplicities)) == mults

    def test_exact_two_equal_with_fixed_b(self):
        q = synthesize(NatureTarget(nature=Nature.TWO_EQUAL_REAL, a=1.0,
                                    b=Fraction(-3), exact=True))
        assert q.b == -3 and q.is_exact
        assert classify_quartic(q).nature is Nature.TWO_EQUAL_REAL

    def test_exact_triple_with_compatible_b(self):
        # 3a^2 - 8b = 3t^2 with t = 2: b = 3(a^2 - 4)/8
        a = Fraction(3)
        b = 3 * (a * a - 4) / 8
        q = synthesize(NatureTarget(nature=Nature.TRIPLE_PLUS_SINGLE, a=a, b=b,
                                    exact=True))
        assert classify_quartic(q).nature is Nature.TRIPLE_PLUS_SINGLE

    def test_exact_triple_with_incompatible_b_unachievable(self):
        with pytest.raises(Unachievable):
            synthesize(NatureTarget(nature=Nature.TRIPLE_PLUS_SINGLE, a=Fraction(3),
                                    b=Fraction(1, 7), exact=True))

    @pytest.mark.parametrize("window", [-5.0, 0.0, float("nan"), float("inf")])
    def test_window_must_be_finite_and_positive(self, window):
        with pytest.raises(ValueError, match="window"):
            NatureTarget(nature=Nature.FOUR_DISTINCT_REAL, a=2.0, strategy="random",
                         seed=1, window=window)

    def test_window_controls_sampling(self):
        q = synthesize(NatureTarget(nature=Nature.NO_REAL, a=0.0,
                                    strategy="random", seed=3, window=2.0))
        assert classify_quartic(q).nature is Nature.NO_REAL


class TestExactFixedB:
    """Exact synthesis from rational root data with b fixed by the caller."""

    @pytest.mark.parametrize("position, c, d", [
        (None, Fraction(-25, 4), Fraction(-25, 16)),
        (DoublePairPosition.LOWEST_TWO, Fraction(-4), Fraction(8)),
        (DoublePairPosition.MIDDLE_TWO, Fraction(-25, 4), Fraction(-25, 16)),
        (DoublePairPosition.HIGHEST_TWO, Fraction(-9, 4), Fraction(135, 16)),
    ])
    def test_double_pair_positions(self, position, c, d):
        q = synthesize(NatureTarget(nature=Nature.FOUR_REAL_DOUBLE_PAIR, a=Fraction(1),
                                    b=Fraction(-6), position=position, exact=True))
        assert (q.a, q.b, q.c, q.d) == (1, -6, c, d)
        cls = classify_quartic(q)
        assert cls.nature is Nature.FOUR_REAL_DOUBLE_PAIR
        assert cls.position is (position or DoublePairPosition.MIDDLE_TWO)

    def test_double_pair_without_rational_configuration(self):
        # (v - w)^2 = -8u^2 + 4 is a rational square for no u = k/8, |k| < 4000
        with pytest.raises(Unachievable,
                           match="no rational double-pair configuration matches"):
            synthesize(NatureTarget(nature=Nature.FOUR_REAL_DOUBLE_PAIR, a=Fraction(0),
                                    b=Fraction(-1), exact=True))

    @pytest.mark.parametrize("nature", [Nature.FOUR_REAL_DOUBLE_PAIR,
                                        Nature.TWO_EQUAL_REAL])
    def test_fixed_c_unachievable(self, nature):
        with pytest.raises(Unachievable, match="supports fixing a and b only"):
            synthesize(NatureTarget(nature=nature, a=Fraction(0), b=Fraction(-1),
                                    c=Fraction(1), exact=True))

    @pytest.mark.parametrize("a, b, c, d", [
        # u = 0 passes at once (the grid starts at k = 0)
        (Fraction(1), Fraction(5), Fraction(0), Fraction(0)),
        # u = 1/8 and -1/8 both pass; +k/8 is tried first
        (Fraction(0), Fraction(0), Fraction(-1, 128), Fraction(3, 4096)),
        (Fraction(1), Fraction(-3), Fraction(-351, 128), Fraction(15795, 4096)),
        (Fraction(2), Fraction(-7, 3), Fraction(-16, 3), Fraction(14, 3)),
    ])
    def test_two_equal(self, a, b, c, d):
        q = synthesize(NatureTarget(nature=Nature.TWO_EQUAL_REAL, a=a, b=b, exact=True))
        assert (q.a, q.b, q.c, q.d) == (a, b, c, d)
        assert classify_quartic(q).nature is Nature.TWO_EQUAL_REAL

    @pytest.mark.parametrize("fixed, message", [
        ({"b": Fraction(5)}, "a quadruple root needs b = 3a^2/8 exactly"),
        ({"c": Fraction(5)}, "a quadruple root needs c = a^3/16 exactly"),
    ])
    def test_quadruple_mismatch(self, fixed, message):
        with pytest.raises(Unachievable, match=re.escape(message)):
            synthesize(NatureTarget(nature=Nature.QUADRUPLE_ROOT, a=Fraction(4),
                                    exact=True, **fixed))

    def test_quadruple_matching_prefix(self):
        q = synthesize(NatureTarget(nature=Nature.QUADRUPLE_ROOT, a=Fraction(4),
                                    b=Fraction(6), c=Fraction(4), exact=True))
        assert (q.a, q.b, q.c, q.d) == (4, 6, 4, 1)
