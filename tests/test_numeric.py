"""Tolerance.compare_terms against the separate sign, value and margin calls."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass.numeric import Tolerance, _sum_left, is_exact, sum_terms

floats = st.floats(allow_nan=False, allow_infinity=False)
fractions = st.fractions() | st.integers(-10**400, 10**400).map(Fraction)
epsilons = st.sampled_from([1e-9, 1e-6, 1e-2, 0.0])


def reference(tol: Tolerance, terms):
    """Sign, float sum, margin and fragile flag from the calls compare_terms
    replaced in classify_quartic."""
    total = sum(terms)
    s = tol.sign_terms(terms)
    value = float(total)
    # margin in tolerance units, as the former Tolerance.margin_terms did it
    scale = max((abs(float(t)) for t in terms), default=0.0)
    margin = tol.margin(value, scale)
    fragile = (s == 0) if is_exact(total) else abs(margin) < 10.0
    return s, value, margin, fragile


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except OverflowError:
        return "OverflowError"


def with_negations(draw_terms):
    """Terms followed by their negations: the sum cancels exactly for Fractions."""
    return draw_terms.map(lambda ts: ts + [-t for t in reversed(ts)])


term_lists = st.one_of(
    st.lists(floats, max_size=6),
    st.lists(fractions, max_size=6),
    st.lists(st.integers(-10**30, 10**30), max_size=6),
    with_negations(st.lists(floats, max_size=3)),
    with_negations(st.lists(fractions, max_size=3)),
    st.integers(0, 5).map(lambda n: [0.0] * n),
    st.integers(0, 5).map(lambda n: [Fraction(0)] * n),
)


@settings(max_examples=400, deadline=None)
@given(term_lists, epsilons)
def test_compare_terms_matches_separate_calls(terms, eps):
    tol = Tolerance(eps)
    terms = tuple(terms)
    assert outcome(tol.compare_terms, terms) == outcome(reference, tol, terms)


def test_terms_are_summed_left_to_right():
    # numpy's elementwise sums round after every term; a compensated sum
    # (math.fsum, or sum() from Python 3.12) would return 1.0 here
    terms = (1e16, 1.0, -1e16)
    left = float(np.add(np.add(terms[0], terms[1]), terms[2]))
    assert left == 0.0 and math.fsum(terms) == 1.0
    assert sum_terms(terms) == _sum_left(terms) == left
    assert Tolerance(0.0).compare_terms(terms)[:2] == (0, left)
    assert Tolerance(0.0).sign_terms(terms) == 0
    assert sum_terms(()) == _sum_left(()) == 0


def left_to_right(terms):
    total = 0
    for t in terms:
        total = total + t
    return total


@settings(max_examples=300, deadline=None)
@given(term_lists)
def test_sums_add_left_to_right(terms):
    # sum_terms is sum() or _sum_left, whichever is left to right and faster
    want = outcome(left_to_right, terms)
    assert outcome(sum_terms, terms) == want
    assert outcome(_sum_left, terms) == want


def test_overflowing_float_terms_raise():
    with pytest.raises(OverflowError):
        Tolerance().compare_terms((1e308, 1e308))
    with pytest.raises(OverflowError):
        Tolerance().sign_terms((1e308, 1e308))


def test_scale_counts_as_at_least_the_smallest_normal():
    tiny = 5e-324
    assert Tolerance().sign_terms((27 * tiny, -26 * tiny)) == 0
    assert Tolerance().sign_terms((1e-300, -0.5e-300)) == 1
    assert Tolerance(0.0).sign_terms((27 * tiny, -26 * tiny)) == 1


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_tolerance_rejects_nan_infinite_and_negative_eps(eps):
    with pytest.raises(ValueError):
        Tolerance(eps)


@pytest.mark.parametrize("eps", [0.0, 5e-324, 1e-9, 0.5, 1e300])
def test_tolerance_accepts_finite_nonnegative_eps(eps):
    assert Tolerance(eps).eps == eps


def test_exact_sign_of_huge_fractions_needs_no_float():
    huge = Fraction(10**400, 3)
    assert Tolerance().sign_terms((huge, -huge / 2)) == 1
    with pytest.raises(OverflowError):
        Tolerance().compare_terms((huge, -huge / 2))


@pytest.mark.parametrize("value, exact", [
    (1.5, False), (np.float64(1.5), False), (3, True), (True, True),
    (Fraction(1, 3), True), (np.int64(3), True), (1j, False),
])
def test_is_exact(value, exact):
    assert is_exact(value) is exact
