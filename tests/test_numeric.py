"""Tolerance.sign_terms and compare_terms against the sign rule written out
term by term, and the Comparison record."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass.numeric import (
    MIN_NORMAL,
    Comparison,
    Tolerance,
    _sum_left,
    is_exact,
    sum_terms,
)

floats = st.floats(allow_nan=False, allow_infinity=False)
fractions = st.fractions() | st.integers(-10**400, 10**400).map(Fraction)
epsilons = st.sampled_from([1e-9, 1e-6, 1e-2, 0.0])
#: ints too large for a float: added to a float they raise OverflowError
huge_ints = st.integers(10**308, 10**400) | st.integers(-10**400, -10**308)


def left_to_right(terms):
    total = 0
    for t in terms:
        total = total + t
    return total


def reference_sign(tol: Tolerance, terms):
    """The sign rule, one term at a time: an exact total by its own sign; a
    float total is 0 when |total| <= eps * max(max |float(t)|, MIN_NORMAL)."""
    total = left_to_right(terms)
    if is_exact(total):
        return (total > 0) - (total < 0)
    value = float(total)
    scale = max((abs(float(t)) for t in terms), default=0.0)
    if not math.isfinite(value) or not math.isfinite(scale):
        raise OverflowError
    if abs(value) <= tol.eps * max(scale, MIN_NORMAL):
        return 0
    return 1 if value > 0 else -1


def reference(tol: Tolerance, terms):
    """Sign, float sum, margin in tolerance units and fragile flag, each
    from its own definition."""
    s = reference_sign(tol, terms)
    total = left_to_right(terms)
    value = float(total)
    scale = max((abs(float(t)) for t in terms), default=0.0)
    denom = tol.eps * max(scale, MIN_NORMAL)
    if denom == 0.0:
        margin = math.inf if value > 0 else (-math.inf if value < 0 else 0.0)
    else:
        margin = value / denom
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
    # float mixed with the other number types the library may meet
    st.lists(floats | fractions | floats.map(np.float64) | huge_ints
             | st.integers(-10**30, 10**30), max_size=6),
    # totals that overflow or turn NaN
    st.lists(st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 1.0]),
             min_size=1, max_size=6),
)

#: mixed, overflowing and NaN totals, each of which the rule must meet
EDGE_TERMS = [
    (1.5, Fraction(1, 3), -2),
    (Fraction(1, 3), 1.5, Fraction(-11, 6)),
    (np.float64(1e-20), 0.5, -0.5),
    (0.5, np.float64(-0.5)),
    (10**400, -10**400, 1.0),
    (Fraction(10**400), Fraction(-10**400), 1e-300),
    (1.0, 10**400),
    (1e308, 1e308),
    (1e308, 1e308, -1e308),
    (np.float64(1e308), 1e308),
    (math.inf, -math.inf),
    (math.nan, 1.0),
    (1.0, -math.inf),
]


@pytest.mark.parametrize("terms", EDGE_TERMS)
@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_edge_term_lists_follow_the_rule(terms, eps):
    tol = Tolerance(eps)
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(tol.sign_terms, terms) == outcome(reference_sign, tol, terms)
        assert outcome(tol.compare_terms, terms) == outcome(reference, tol, terms)


@settings(max_examples=400, deadline=None)
@given(term_lists, epsilons)
def test_compare_terms_matches_separate_calls(terms, eps):
    tol = Tolerance(eps)
    terms = tuple(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(tol.compare_terms, terms) == outcome(reference, tol, terms)


@settings(max_examples=400, deadline=None)
@given(term_lists, epsilons)
def test_sign_terms_matches_the_rule(terms, eps):
    tol = Tolerance(eps)
    terms = tuple(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(tol.sign_terms, terms) == outcome(reference_sign, tol, terms)


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


@settings(max_examples=300, deadline=None)
@given(term_lists)
def test_sums_add_left_to_right(terms):
    # sum_terms is sum() or _sum_left, whichever is left to right and faster
    with np.errstate(over="ignore", invalid="ignore"):
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


class TestComparisonRecord:
    RECORD = Comparison("C0", -1, -0.25, -2.5e8, False)

    def test_fields_in_order(self):
        assert Comparison._fields == ("name", "sign", "value", "margin_units", "fragile")
        assert (self.RECORD.name, self.RECORD.sign, self.RECORD.value,
                self.RECORD.margin_units, self.RECORD.fragile) == tuple(self.RECORD)

    def test_repr(self):
        assert repr(self.RECORD) == ("Comparison(name='C0', sign=-1, value=-0.25, "
                                     "margin_units=-250000000.0, fragile=False)")

    def test_equality_and_hash_by_value(self):
        same = Comparison("C0", -1, -0.25, -2.5e8, False)
        assert same == self.RECORD and hash(same) == hash(self.RECORD)
        assert self.RECORD != Comparison("C0", -1, -0.25, -2.5e8, True)
        assert len({self.RECORD, same}) == 1

    @pytest.mark.parametrize("field", ["name", "sign", "value", "margin_units", "fragile"])
    def test_immutable(self, field):
        with pytest.raises(AttributeError):
            setattr(self.RECORD, field, 0)
        with pytest.raises(AttributeError):
            self.RECORD.extra = 0

    def test_comparisons_of_a_classification_are_records(self):
        from polyclass import Quartic, classify_quartic

        cls = classify_quartic(Quartic(3.0, 2.0, -1.0, -0.95))
        assert cls.comparisons and all(type(c) is Comparison for c in cls.comparisons)
