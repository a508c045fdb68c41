"""Tetrahedron landmarks, universal bounds, span extrema and localization."""

import math

import numpy as np
import pytest

from polyclass import (
    ClassificationCase,
    Nature,
    NoTetrahedron,
    NotFourReal,
    Quartic,
    Tolerance,
    classify_quartic,
    localize_roots,
    root_bounds,
    solve,
    span_bounds,
    tetrahedron_data,
)

from conftest import quartic_coeffs_from_roots


class TestTetrahedronData:
    def test_worked_example_1(self):
        t = tetrahedron_data(3.0, 2.0)
        assert t.insphere_radius == pytest.approx(0.4787, abs=5e-5)
        assert t.edge == pytest.approx(2.3452, abs=5e-5)
        assert t.rho2 == pytest.approx(-1.2287, abs=5e-5)
        assert t.sigma3 == pytest.approx(-1.5792, abs=5e-5)
        assert t.center_x == pytest.approx(-0.75)
        assert t.phi2 == pytest.approx(0.2074, abs=5e-5)
        assert t.sigma1 == pytest.approx(0.0792, abs=5e-5)

    def test_worked_example_2(self):
        t = tetrahedron_data(-4.0, 5.0)
        assert t.insphere_radius == pytest.approx(0.4082, abs=5e-5)
        assert t.edge == pytest.approx(2.0000, abs=5e-5)
        assert t.sigma3 == pytest.approx(0.2929, abs=5e-5)
        assert t.phi1 == pytest.approx(0.1835, abs=5e-5)
        assert t.rho1 == pytest.approx(1.4082, abs=5e-5)
        assert t.sigma1 == pytest.approx(1.7071, abs=5e-5)

    def test_degenerate_rejected(self):
        with pytest.raises(NoTetrahedron):
            tetrahedron_data(0.0, 0.0)
        with pytest.raises(NoTetrahedron):
            tetrahedron_data(2.0, 3.0)

    def test_geometric_identities(self, rng):
        for _ in range(200):
            a = rng.uniform(-10, 10)
            b = 3 * a * a / 8 - rng.uniform(0.01, 10)
            t = tetrahedron_data(a, b)
            assert t.edge == pytest.approx(math.sqrt(2.0) * t.triangle_side, rel=1e-12)
            assert t.height == pytest.approx(4.0 * t.insphere_radius, rel=1e-12)
            assert (t.lambda_max - t.lambda_min
                    == pytest.approx(6.0 * t.insphere_radius, rel=1e-12))
            assert t.rho1 - t.rho2 == pytest.approx(2.0 * t.insphere_radius, rel=1e-12)


class TestRootBounds:
    def test_triple_plus_single_attains_lambda_min(self):
        lam_min, lam_max = root_bounds(0.0, -6.0)
        assert (lam_min, lam_max) == (pytest.approx(-3.0), pytest.approx(3.0))
        rs = solve(Quartic(0.0, -6.0, 8.0, -3.0))
        assert rs.values[0] == pytest.approx(lam_min, abs=1e-9)

    def test_worked_example_bound_holds(self):
        lam_min, lam_max = root_bounds(3.0, 2.0)
        assert lam_max == pytest.approx(-0.75 + math.sqrt(3) / 4 * math.sqrt(11), rel=1e-12)
        assert lam_max >= 0.6094 - 1e-9
        roots = solve(Quartic(3.0, 2.0, -1.0, -0.95)).values
        assert all(lam_min - 1e-9 <= x <= lam_max + 1e-9 for x in roots)

    def test_degenerate_boundary_collapses_to_quadruple_root(self):
        lam_min, lam_max = root_bounds(4.0, 6.0)
        assert lam_min == lam_max == pytest.approx(-1.0)

    def test_negative_gap_rejected(self):
        with pytest.raises(NoTetrahedron):
            root_bounds(0.0, 1.0)

    def test_all_constructed_roots_inside(self, rng):
        for _ in range(500):
            roots = np.sort(rng.uniform(-5, 5, size=4))
            a, b, _, _ = quartic_coeffs_from_roots(*roots)
            lam_min, lam_max = root_bounds(a, b)
            assert lam_min - 1e-9 <= roots[0] and roots[-1] <= lam_max + 1e-9

    def test_no_simultaneous_attainment(self, rng):
        for _ in range(500):
            roots = np.sort(rng.uniform(-5, 5, size=4))
            a, b, _, _ = quartic_coeffs_from_roots(*roots)
            lam_min, lam_max = root_bounds(a, b)
            hits_min = abs(roots[0] - lam_min) < 1e-9
            hits_max = abs(roots[-1] - lam_max) < 1e-9
            assert not (hits_min and hits_max)


class TestSpanBounds:
    def test_two_double_pairs_attains_the_true_minimum(self):
        # the minimal axis projection of a regular tetrahedron is the
        # opposite-edge width L/sqrt(2) = triangle side, NOT the height:
        # (x^2-1)^2 spans exactly that side and sits BELOW the h bound
        h, edge = span_bounds(0.0, -2.0)
        assert edge == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
        rs = solve(Quartic(0.0, -2.0, 0.0, 1.0))
        span = rs.values[-1] - rs.values[0]
        assert span == pytest.approx(edge / math.sqrt(2.0), rel=1e-9)
        assert span < h  # documented defect of the height-as-minimum claim

    def test_distinct_roots_can_span_less_than_h(self):
        roots = (-1.0, -0.99, 0.99, 1.0)
        q = Quartic(*quartic_coeffs_from_roots(*roots))
        assert classify_quartic(q).nature is Nature.FOUR_DISTINCT_REAL
        h, edge = span_bounds(q.a, q.b)
        t = tetrahedron_data(q.a, q.b)
        span = roots[-1] - roots[0]
        assert t.triangle_side - 1e-9 <= span < h

    def test_triple_plus_single_attains_minimum(self):
        h, edge = span_bounds(0.0, -6.0)
        assert h == pytest.approx(4.0, rel=1e-12)
        rs = solve(Quartic(0.0, -6.0, 8.0, -3.0))
        assert rs.values[-1] - rs.values[0] == pytest.approx(h, abs=1e-9)

    def test_constructed_spans_inside_true_bounds(self, rng):
        below_h = 0
        for _ in range(500):
            roots = np.sort(rng.uniform(-5, 5, size=4))
            a, b, _, _ = quartic_coeffs_from_roots(*roots)
            h, edge = span_bounds(a, b)
            side = edge / math.sqrt(2.0)
            span = roots[-1] - roots[0]
            assert side - 1e-9 <= span <= edge + 1e-9
            below_h += span < h - 1e-9
        assert below_h > 0  # the h lower bound genuinely fails on random draws


class TestLocalization:
    def test_worked_example_1_low_branch(self):
        q = Quartic(3.0, 2.0, -1.0, -0.95)
        cls = classify_quartic(q)
        loc = localize_roots(q, cls)
        assert loc.branch == "low_c" and not loc.tie_at_c0
        roots = solve(q).expanded()
        for x, (lo, hi) in zip(roots, loc.intervals):
            assert lo - 1e-9 <= x <= hi + 1e-9
        t = tetrahedron_data(3.0, 2.0)
        assert loc.intervals[0] == (t.lambda_min, t.rho2)
        assert loc.intervals[1] == (t.sigma3, t.center_x)
        assert loc.intervals[2] == (t.rho2, t.phi2)
        assert loc.intervals[3] == (t.sigma1, t.lambda_max)

    def test_worked_example_2_high_branch(self):
        q = Quartic(-4.0, 5.0, -1.75, -0.2)
        cls = classify_quartic(q)
        loc = localize_roots(q, cls)
        assert loc.branch == "high_c"
        roots = solve(q).expanded()
        for x, (lo, hi) in zip(roots, loc.intervals):
            assert lo - 1e-9 <= x <= hi + 1e-9

    def test_tie_at_c0(self):
        q = Quartic(0.0, -2.0, 0.0, 1.0)
        loc = localize_roots(q, classify_quartic(q))
        assert loc.tie_at_c0 and loc.branch == "low_c"
        for x, (lo, hi) in zip((-1.0, -1.0, 1.0, 1.0), loc.intervals):
            assert lo - 1e-9 <= x <= hi + 1e-9

    def test_branch_is_the_classification_decision(self):
        # c sits 1e-5 above C0 = -2: at eps 1e-3 the verdict (case xxvii) has
        # c = C0, so the localization ties there too, whatever the default
        # tolerance would decide
        q = Quartic(-4.0, 5.0, -1.99999, 0.05)
        cls = classify_quartic(q, Tolerance(1e-3))
        assert cls.case is ClassificationCase.XXVII
        loc = localize_roots(q, cls)
        assert loc.tie_at_c0 is True and loc.branch == "low_c"

    def test_rejects_two_real(self):
        q = Quartic(0.0, 0.0, 0.0, -1.0)
        with pytest.raises(NotFourReal):
            localize_roots(q, classify_quartic(q))

    def test_rejects_quadruple(self):
        q = Quartic(4.0, 6.0, 4.0, 1.0)
        with pytest.raises(NoTetrahedron):
            localize_roots(q, classify_quartic(q))

    def test_containment_random(self, rng):
        checked = 0
        for _ in range(400):
            roots = np.sort(rng.uniform(-5, 5, size=4))
            q = Quartic(*quartic_coeffs_from_roots(*roots))
            cls = classify_quartic(q)
            if cls.nature is not Nature.FOUR_DISTINCT_REAL:
                continue
            checked += 1
            loc = localize_roots(q, cls)
            for x, (lo, hi) in zip(roots, loc.intervals):
                assert lo - 1e-7 <= x <= hi + 1e-7
        assert checked > 300

    def test_an_interval_may_hold_three_roots(self):
        # the intervals box the sorted roots but are not isolation intervals;
        # a hard two-root cap would be wrong
        roots = (-2.47013582, -2.24997971, -2.19068012, 0.42770924)
        q = Quartic(*quartic_coeffs_from_roots(*roots))
        cls = classify_quartic(q)
        assert cls.nature is Nature.FOUR_DISTINCT_REAL
        loc = localize_roots(q, cls)
        counts = [
            sum(lo - 1e-9 <= x <= hi + 1e-9 for x in roots)
            for lo, hi in loc.intervals
        ]
        assert max(counts) == 3
