"""Quintic free-term discriminant cascade and sign-change counting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyclass import (
    DegenerateAtBoundary,
    Quintic,
    all_roots,
    delta5_coefficients,
    delta5_eval,
    delta5_sign_changes,
    quintic_cascade,
    solve,
)
from polyclass.quintic import (
    delta_t_value,
    delta_tilde_r_value,
    delta_tilde_s_factored,
    delta_tilde_s_value,
)

from conftest import quintic_coeffs_from_roots


def brute_quintic_discriminant(p, q, r, s, t):
    roots = all_roots(Quintic(p, q, r, s, t))
    prod = complex(1.0)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            diff = roots[i] - roots[j]
            prod *= diff * diff
    return prod.real


class TestCascadeValues:
    def test_leading_coefficient(self):
        assert delta5_coefficients(0.3, -1.2, 4.5, 0.7)[0] == 3125

    def test_pure_quartic_term(self):
        coeffs = delta5_coefficients(0.0, 0.0, 0.0, 0.0)
        assert coeffs == (3125, 0, 0, 0, 0)
        assert delta_tilde_r_value(0.0, 0.0) == 0

    def test_monotone_family(self):
        # x^5 + x + t: the discriminant in t never vanishes
        coeffs = delta5_coefficients(0.0, 0.0, 0.0, 1.0)
        assert coeffs == (3125, 0, 0, 0, 256)

    def test_delta_tilde_r_exact(self):
        p, q = Fraction(3, 2), Fraction(-7, 3)
        assert delta_tilde_r_value(p, q) == 8 * (2 * p * p - 5 * q) ** 3

    def test_r_threshold_gap(self, rng):
        for _ in range(50):
            p = rng.uniform(-4, 4)
            q = 2 * p * p / 5 - rng.uniform(0.1, 4)
            casc = quintic_cascade(p, q, 0.0, 0.0)
            gap = 2 * p * p - 5 * q
            assert casc.r1 - casc.r2 == pytest.approx(
                2 * math.sqrt(2.0) / 25.0 * math.sqrt(gap ** 3), rel=1e-10)
            assert casc.r1 + casc.r2 == pytest.approx(2 * casc.r0, rel=1e-9, abs=1e-12)

    def test_factored_tilde_s_matches_expanded_exactly(self):
        vals = [
            (Fraction(1), Fraction(-2), Fraction(3, 4)),
            (Fraction(-5, 2), Fraction(1, 3), Fraction(7)),
            (Fraction(0), Fraction(-1), Fraction(2)),
        ]
        for p, q, r in vals:
            assert delta_tilde_s_factored(p, q, r) == delta_tilde_s_value(p, q, r)

    def test_factored_tilde_s_matches_expanded_float(self, rng):
        for _ in range(200):
            p, q, r = rng.uniform(-5, 5, size=3)
            expanded = delta_tilde_s_value(p, q, r)
            factored = delta_tilde_s_factored(p, q, r)
            assert factored == pytest.approx(expanded, rel=1e-10, abs=1e-4)

    def test_delta5_matches_brute_discriminant(self, rng):
        for _ in range(120):
            p, q, r, s, t = rng.uniform(-3, 3, size=5)
            closed = delta5_eval(delta5_coefficients(p, q, r, s), t)
            brute = brute_quintic_discriminant(p, q, r, s, t)
            assert closed == pytest.approx(brute, rel=1e-7, abs=1e-5)

    def test_delta_t_is_the_discriminant_of_the_t_quartic(self, rng):
        # standard normalization: lead^(2n-2) * prod of squared root gaps
        for _ in range(40):
            p, q, r, s = rng.uniform(-2, 2, size=4)
            coeffs = delta5_coefficients(p, q, r, s)
            roots = all_roots([float(c) for c in coeffs])
            prod = complex(1.0)
            for i in range(4):
                for j in range(i + 1, 4):
                    diff = roots[i] - roots[j]
                    prod *= diff * diff
            expected = 3125.0 ** 6 * prod.real
            assert delta_t_value(p, q, r, s) == pytest.approx(
                expected, rel=1e-6, abs=1e-2)


class TestSignChanges:
    def test_five_distinct_real_roots_transition_four_times(self, rng):
        for _ in range(10):
            roots = np.sort(rng.uniform(-3, 3, size=5))
            if min(np.diff(roots)) < 0.3:
                continue
            p, q, r, s, _ = quintic_coeffs_from_roots(roots)
            summary = delta5_sign_changes(p, q, r, s)
            assert summary.count == 4
            assert len(summary.t_roots) == 4

    def test_sweep_matches_oracle_transitions(self, rng):
        roots = np.array([-2.0, -1.0, 0.5, 1.5, 2.5])
        p, q, r, s, _ = quintic_coeffs_from_roots(roots)
        summary = delta5_sign_changes(p, q, r, s)
        grid = np.linspace(summary.t_roots[0] - 1.0, summary.t_roots[-1] + 1.0, 400)
        counts = [solve(Quintic(p, q, r, s, t)).real_count for t in grid]
        transitions = sum(1 for x, y in zip(counts, counts[1:]) if x != y)
        assert transitions == summary.count
        for lo, hi in zip(summary.t_roots, summary.t_roots[1:]):
            assert hi > lo

    def test_monotone_quintic_has_no_sign_change(self):
        # x^5 + x + t is strictly increasing for every t: delta5 stays positive
        summary = delta5_sign_changes(0.0, 0.0, 0.0, 1.0)
        assert summary.count == 0
        assert summary.t_roots == ()

    def test_two_stationary_points_two_changes(self):
        # x^5 - x has two stationary points
        summary = delta5_sign_changes(0.0, 0.0, 0.0, -1.0)
        assert summary.count == 2

    def test_degenerate_pure_power(self):
        with pytest.raises(DegenerateAtBoundary):
            delta5_sign_changes(0.0, 0.0, 0.0, 0.0)

    def test_count_matches_distinct_stationary_points(self, rng):
        for _ in range(40):
            p, q, r, s = rng.uniform(-2, 2, size=4)
            try:
                summary = delta5_sign_changes(p, q, r, s)
            except DegenerateAtBoundary:
                continue
            deriv = solve([5.0, 4 * p, 3 * q, 2 * r, s])
            assert summary.count == deriv.real_count


class TestCascadeStructure:
    def test_cascade_fields_populated(self):
        casc = quintic_cascade(1.0, -2.0, 0.5, 0.25)
        assert casc.delta5_coeffs[0] == 3125
        assert casc.r1 is not None and casc.r2 is not None
        assert casc.delta_tilde_r == pytest.approx(8 * (2 + 10) ** 3)

    def test_no_r_thresholds_without_gap(self):
        casc = quintic_cascade(0.0, 1.0, 0.0, 0.0)
        assert casc.r1 is None and casc.r2 is None

    def test_exact_mode(self):
        casc = quintic_cascade(Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(1, 4))
        assert isinstance(casc.delta_tilde_r, Fraction)
        assert isinstance(casc.delta5_coeffs[1], Fraction)
        assert casc.r0 == Fraction(-34, 25) and type(casc.r0) is Fraction

    @pytest.mark.parametrize("p", [1, 1733])
    def test_mixed_input_is_float(self, p):
        # an int p among floats is a float, not a Fraction rounded term by term
        mixed = quintic_cascade(p, -1.5, 0.5, 0.25)
        floaty = quintic_cascade(float(p), -1.5, 0.5, 0.25)
        for name in ("delta5_coeffs", "delta_t", "delta_tilde_s", "delta_tilde_r",
                     "r0", "r1", "r2"):
            assert repr(getattr(mixed, name)) == repr(getattr(floaty, name)), name
