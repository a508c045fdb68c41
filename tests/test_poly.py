"""Core types and discriminants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass import (
    Cubic,
    Quartic,
    Quintic,
    RootSet,
    brute_discriminant,
    discriminant_quartic,
)
from polyclass.poly import (
    cubic_discriminant_terms,
    quartic_discriminant_terms,
    root_set_from_values,
)

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestConstruction:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Cubic(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Quartic(0.0, float("inf"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Quintic(0.0, 0.0, -float("inf"), 0.0, 0.0)

    def test_leading_normalization(self):
        cu = Cubic.from_leading(2, 4, 6, 8)
        assert (cu.a, cu.b, cu.c) == (2, 3, 4)
        with pytest.raises(ValueError):
            Quartic.from_leading(0, 1, 1, 1, 1)

    def test_leading_normalization_exact(self):
        q = Quartic.from_leading(Fraction(4), 1, 2, 3, 4)
        assert q.a == Fraction(1, 4) and q.is_exact

    def test_one_float_makes_the_polynomial_float(self):
        q = Quartic(3, 2, -1, -0.95)
        assert all(type(v) is float for v in q.coefficients()[1:]) and not q.is_exact
        assert q == Quartic(3.0, 2.0, -1.0, -0.95)
        cu = Cubic.from_leading(2, 4, 6, 8.0)
        assert all(type(v) is float for v in cu.coefficients()[1:])
        assert (cu.a, cu.b, cu.c) == (2.0, 3.0, 4.0)

    def test_ints_are_held_as_fractions(self):
        q = Quartic(1, 2, 3, 4)
        assert all(type(v) is Fraction for v in q.coefficients()[1:]) and q.is_exact
        deriv, factor = q.derivative_monic()
        assert factor == 4 and deriv.is_exact
        assert (deriv.a, deriv.b, deriv.c) == (Fraction(3, 4), 1, Fraction(3, 4))
        assert all(type(v) is Fraction for v in deriv.coefficients()[1:])

    def test_quintic_as_float(self):
        qf = Quintic(1, Fraction(1, 2), 0, 0, -3).as_float()
        assert all(type(v) is float for v in qf.coefficients()[1:])
        assert qf == Quintic(1.0, 0.5, 0.0, 0.0, -3.0)

    @pytest.mark.parametrize("kind, coeffs", [
        (Cubic, (1, Fraction(-1, 3), 2)),
        (Quartic, (3, 2, -1, Fraction(-19, 20))),
        (Quintic, (1, Fraction(1, 2), 0, 0, -3)),
    ])
    def test_as_float_copies_exact_and_keeps_float(self, kind, coeffs):
        exact = kind(*coeffs)
        qf = exact.as_float()
        assert qf is not exact and qf == kind(*map(float, coeffs))
        assert all(type(v) is float for v in qf.coefficients()[1:])
        # float coefficients never change, so the float polynomial is its own copy
        assert qf.as_float() is qf
        floaty = kind(*map(float, coeffs))
        assert floaty.as_float() is floaty

    def test_derivative_of_quartic_is_scaled_monic_cubic(self):
        deriv, factor = Quartic(3.0, 2.0, -1.0, -0.95).derivative_monic()
        assert factor == 4
        assert (deriv.a, deriv.b, deriv.c) == (2.25, 1.0, -0.25)

    def test_derivative_of_pure_power(self):
        deriv, factor = Quartic(0.0, 0.0, 0.0, 0.0).derivative_monic()
        assert (deriv.a, deriv.b, deriv.c) == (0.0, 0.0, 0.0) and factor == 4

    def test_eval_horner(self):
        assert Cubic(0.0, -1.0, 0.0)(2.0) == 6.0
        assert Quartic(0.0, 0.0, 0.0, -16.0)(2.0) == 0.0


class TestRootSet:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            RootSet(((0.0, 1), (0.0, 1)), 0, (0.0, 0.0), 2)  # not increasing
        with pytest.raises(ValueError):
            RootSet(((0.0, 1),), 1, (0.0,), 4)  # 1 + 2 != 4
        with pytest.raises(ValueError):
            RootSet(((0.0, 0),), 0, (0.0,), 0)  # zero multiplicity

    def test_merge_exact_duplicates(self):
        rs = root_set_from_values([1.0, -1.0, 1.0], [0.0, 0.0, 0.0], 3)
        assert rs.roots == ((-1.0, 1), (1.0, 2))
        assert rs.expanded() == (-1.0, 1.0, 1.0)


class TestCubicDiscriminant:
    def test_three_simple_roots(self):
        assert sum(cubic_discriminant_terms(Cubic(0.0, -1.0, 0.0))) == 4.0

    def test_triple_root(self):
        assert sum(cubic_discriminant_terms(Cubic(0.0, 0.0, 0.0))) == 0.0

    def test_matches_root_pair_product(self):
        # oracle value: product of squared root differences of x^3+3x^2+2x-1
        cu = Cubic(3.0, 2.0, -1.0)
        assert sum(cubic_discriminant_terms(cu)) == pytest.approx(-23.0, rel=1e-12)
        assert sum(cubic_discriminant_terms(cu)) == pytest.approx(
            brute_discriminant(cu), rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(coeff, coeff, coeff)
    def test_brute_force_identity(self, a, b, c):
        cu = Cubic(a, b, c)
        closed = sum(cubic_discriminant_terms(cu))
        brute = brute_discriminant(cu)
        assert closed == pytest.approx(brute, rel=1e-8, abs=1e-7)


class TestQuarticDiscriminant:
    def test_quadruple_root(self):
        assert discriminant_quartic(Quartic(0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_two_double_roots(self):
        assert discriminant_quartic(Quartic(0.0, -2.0, 0.0, 1.0)) == 0.0

    def test_four_distinct_real_sample(self):
        q = Quartic(3.0, 2.0, -1.0, -0.95)
        value = discriminant_quartic(q)
        assert value > 0
        assert value == pytest.approx(brute_discriminant(q), rel=1e-9)

    def test_exact_arithmetic(self):
        q = Quartic(Fraction(3), Fraction(2), Fraction(-1), Fraction(-19, 20))
        value = discriminant_quartic(q)
        assert isinstance(value, Fraction)
        assert value == Fraction(569, 2000)


class TestDiscriminantSignAgreement:
    def test_sign_matches_oracle_structure_off_boundary(self, rng):
        # sign(disc) vs real-root count: >0 means 0 or 4, <0 means exactly 2,
        # checked wherever |disc| clears 1e-6 of its own monomial scale
        from polyclass.batch import (
            aberth_roots_batch,
            real_root_count_batch,
        )
        import numpy as np

        n = 100_000
        abcd = rng.uniform(-10, 10, size=(n, 4))
        roots = aberth_roots_batch(abcd)
        counts = real_root_count_batch(roots)
        checked = 0
        for row, count in zip(abcd, counts):
            q = Quartic(*row)
            disc = discriminant_quartic(q)
            scale = max(abs(float(t)) for t in quartic_discriminant_terms(q))
            if abs(disc) <= 1e-6 * scale:
                continue
            checked += 1
            if disc > 0:
                assert count in (0, 4), row
            else:
                assert count == 2, row
        assert checked > 0.99 * n


class TestMonicDerivatives:
    def test_cubic_derivative(self):
        (a2, b2), factor = Cubic(3.0, -6.0, 1.0).derivative_monic()
        assert factor == 3
        assert (a2, b2) == (2.0, -2.0)  # x^2 + 2x - 2 from 3x^2 + 6x - 6

    def test_quintic_derivative(self):
        deriv, factor = Quintic(5.0, 10.0, -5.0, 2.0, 7.0).derivative_monic()
        assert factor == 5
        assert (deriv.a, deriv.b, deriv.c, deriv.d) == (4.0, 6.0, -2.0, 0.4)

    def test_exact_derivatives_stay_rational(self):
        deriv, _ = Quartic(Fraction(1), Fraction(2), Fraction(3), Fraction(4)).derivative_monic()
        assert deriv.is_exact and deriv.a == Fraction(3, 4)
