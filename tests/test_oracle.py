"""Simultaneous-iteration root finder: values, multiplicities, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass import (
    Cubic,
    NoConvergence,
    OracleConfig,
    Quartic,
    Quintic,
    all_roots,
    brute_discriminant,
    discriminant_quartic,
    solve,
)

from conftest import eval_scale, monic_from_roots

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestSolve:
    def test_three_simple_roots(self):
        rs = solve(Cubic(0.0, -1.0, 0.0))
        assert rs.multiplicities == (1, 1, 1)
        assert rs.values == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)
        assert rs.complex_pairs == 0

    def test_quadruple_root(self):
        rs = solve(Quartic(4.0, 6.0, 4.0, 1.0))
        assert rs.roots == ((pytest.approx(-1.0, abs=1e-7), 4),)

    def test_triple_plus_single(self):
        rs = solve(Quartic(0.0, -6.0, 8.0, -3.0))
        assert rs.multiplicities == (1, 3)
        assert rs.values == pytest.approx((-3.0, 1.0), abs=1e-8)

    def test_worked_example_roots(self):
        rs = solve(Quartic(3.0, 2.0, -1.0, -0.95))
        assert rs.values == pytest.approx(
            (-1.5379, -1.2787, -0.7928, 0.6094), abs=5e-5)

    def test_complex_pair_counting(self):
        assert solve(Quartic(0.0, 0.0, 0.0, 1.0)).complex_pairs == 2
        assert solve(Quintic(0.0, 0.0, 0.0, 1.0, 0.0)).complex_pairs == 2
        rs = solve(Quartic(0.0, 2e-8, 0.0, 1e-16))  # (x^2+1e-8)^2
        assert rs.real_count == 0 and rs.complex_pairs == 2

    def test_quadratic_closed_form(self):
        rs = solve([1.0, 0.0, -4.0])
        assert rs.values == pytest.approx((-2.0, 2.0), abs=1e-14)

    def test_residuals_reported(self):
        rs = solve(Quartic(3.0, 2.0, -1.0, -0.95))
        coeffs = [1.0, 3.0, 2.0, -1.0, -0.95]
        for v, r in zip(rs.values, rs.residuals):
            assert r <= 1e-12 * eval_scale(coeffs, v)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            solve([1.0, 2.0])
        with pytest.raises(ValueError):
            solve([1.0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            solve([0.0, 1.0, 1.0])

    def test_no_convergence_carries_trace(self):
        cfg = OracleConfig(max_iterations=1, convergence_tol=1e-13,
                           cluster_tol=1e-6, polish_steps=1)
        with pytest.raises(NoConvergence) as err:
            solve(Quintic(1.0, -3.0, 2.0, 5.0, -7.0), cfg)
        assert len(err.value.trace) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OracleConfig(cluster_tol=-1.0)


class TestDeterminism:
    def test_bit_identical_runs(self):
        q = Quartic(1.3, -7.2, 0.4, 2.25)
        first = solve(q)
        second = solve(q)
        assert first == second
        assert all_roots(q) == all_roots(q)


class TestReconstruction:
    @settings(max_examples=150, deadline=None)
    @given(coeff, coeff, coeff, coeff)
    def test_quartic_coefficients_recovered(self, a, b, c, d):
        roots = all_roots(Quartic(a, b, c, d))
        rec = np.atleast_1d(np.real(np.poly(roots)))
        for got, want in zip(rec[1:], (a, b, c, d)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(coeff, coeff, coeff, coeff, coeff)
    def test_quintic_coefficients_recovered(self, p, q, r, s, t):
        roots = all_roots(Quintic(p, q, r, s, t))
        rec = np.atleast_1d(np.real(np.poly(roots)))
        for got, want in zip(rec[1:], (p, q, r, s, t)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_tolerance_merge_keeps_the_root_sum(self):
        # roots 0 (triple) and +-8.3e-7: the merge tolerance groups 0, 0, 0 and
        # 8.3e-7, which are no 4-fold root, so the group stays at its mean
        q = -6.932438034147816e-13
        roots = all_roots(Quintic(0.0, q, 0.0, 0.0, 0.0))
        rec = np.real(np.poly(roots))
        assert rec[1:] == pytest.approx((0.0, q, 0.0, 0.0, 0.0), abs=1e-12)


class TestBruteDiscriminant:
    def test_simple_cubic(self):
        assert brute_discriminant(Cubic(0.0, -1.0, 0.0)) == pytest.approx(4.0, rel=1e-12)

    def test_repeated_roots_give_zero(self):
        assert brute_discriminant(Quartic(0.0, -2.0, 0.0, 1.0)) == 0.0

    def test_matches_closed_form(self, rng):
        for _ in range(200):
            a, b, c, d = rng.uniform(-10, 10, size=4)
            q = Quartic(a, b, c, d)
            closed = discriminant_quartic(q)
            assert brute_discriminant(q) == pytest.approx(closed, rel=1e-8, abs=1e-6)


class TestClusterResolution:
    def test_separated_close_roots_stay_separate(self):
        # gap 1e-4 is far above the scatter radius of a genuine double root
        coeffs = monic_from_roots([1.0, 1.0 + 1e-4, -2.0, 3.0])
        rs = solve(coeffs)
        assert rs.multiplicities == (1, 1, 1, 1)

    def test_below_cluster_tol_merges(self):
        coeffs = monic_from_roots([1.0, 1.0 + 1e-8, -2.0, 3.0])
        rs = solve(coeffs)
        assert rs.multiplicities == (1, 2, 1)
