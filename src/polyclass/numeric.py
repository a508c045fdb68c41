"""Tolerance-aware sign tests shared by every classifier.

All threshold decisions in the library reduce to the sign of a polynomial
expression in the input coefficients, given as a list of monomial terms.
``Tolerance`` states the float sign rule; with ``fractions.Fraction``
coefficients the same tests are exact and the tolerance is ignored.

The cubic and the quartic are each a table of weighted-homogeneous
predicates, ``{name: (terms, weight)}``, and one decision tree over it.
Exact input is tested on its integer lattice point (``_lattice``), with no
Fraction arithmetic; ``_recorded`` walks a tree and records each comparison.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import reduce
from numbers import Rational
from operator import add
from typing import NamedTuple, Sequence, Tuple, Union

Number = Union[int, float, Fraction]

DEFAULT_EPS = 1e-9
MIN_NORMAL = sys.float_info.min


def _sum_left(terms: Sequence[Number]) -> Number:
    return reduce(add, terms, 0)


#: left-to-right sum from 0, rounded like numpy's elementwise sums; that is
#: what (the faster) ``sum()`` does before Python 3.12, which made it
#: compensate float rounding
sum_terms = sum if sys.version_info < (3, 12) else _sum_left


def is_exact(value) -> bool:
    """True for values that support exact sign tests (int/Fraction)."""
    if type(value) is float:  # the common case; skips the ABC check
        return False
    return isinstance(value, Rational)


def parse_number(text: str, exact: bool) -> Number:
    """Parse a CLI coefficient.

    In exact mode only integers and ``p/q`` fractions are accepted; decimal
    literals are rejected because silently converting them to binary floats
    would defeat the point of requesting exactness.
    """
    text = text.strip()
    if exact:
        if "/" in text:
            return Fraction(text)
        try:
            return Fraction(int(text))
        except ValueError:
            raise ValueError(
                f"exact mode accepts integers or p/q fractions, got {text!r}"
            ) from None
    return float(text)


class Comparison(NamedTuple):
    """One threshold decision: sign and signed margin in tolerance units (value - threshold)."""

    name: str
    sign: int
    value: float
    margin_units: float
    fragile: bool


_OVERFLOW = ("coefficient magnitudes overflow the threshold expression; "
             "rescale the polynomial or use exact (Fraction) coefficients")


class _Frozen:
    """Shared body of the records whose fields are ``__slots__``: like a frozen
    dataclass, a record is compared, hashed and shown by its fields, equals
    only a record of its own type, and refuses assignment.  A subclass lists
    its fields in ``__slots__`` and sets them in ``__init__`` with
    ``object.__setattr__``."""

    __slots__ = ()

    def _astuple(self) -> Tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


class Tolerance(_Frozen):
    """Relative sign-test tolerance.

    ``sign_terms`` sums a list of monomial terms left to right
    (``sum_terms``).  A float total reads 0 when its magnitude is at most
    ``eps`` times the scale, the largest term magnitude or the smallest
    normal float if that is larger: below the normal range precision is
    absolute rather than relative.  A total or scale that is not finite
    raises OverflowError.  Exact (rational) totals short-circuit to an
    exact comparison.  ``compare_terms`` makes the same test and also
    returns the value, margin and fragile flag.
    """

    __slots__ = ("eps",)

    def __init__(self, eps: float = DEFAULT_EPS):
        # with a NaN or negative eps no sign test reads 0, with an infinite one
        # every test does: either way a confident wrong verdict (NaN fails both
        # comparisons below)
        if not 0.0 <= eps < math.inf:
            raise ValueError(f"tolerance eps must be finite and >= 0, got {eps!r}")
        object.__setattr__(self, "eps", eps)

    def sign_terms(self, terms: Sequence[Number]) -> int:
        value = sum_terms(terms)
        if type(value) is not float:
            if is_exact(value):
                return (value > 0) - (value < 0)
            value = float(value)
        # rounding to float is monotone, so this is the largest |float(t)|
        scale = float(max(map(abs, terms)))
        size = abs(value)
        if not (size < math.inf and scale < math.inf):
            raise OverflowError(_OVERFLOW)
        if size <= self.eps * (scale if scale > MIN_NORMAL else MIN_NORMAL):
            return 0
        return 1 if value > 0 else -1

    def compare_terms(self, terms: Sequence[Number]) -> Tuple[int, float, float, bool]:
        """One comparison from a single sum: (sign, value, margin, fragile).

        ``value`` is the sum as a float and ``margin`` its signed distance
        from zero in tolerance units (1.0 == eps * scale, ±inf when that is
        0).  An exact sum is fragile only when it is zero; a float sum when
        |margin| < 10.  Unlike ``sign_terms``, exact terms are converted to
        float as well, so Fractions beyond the float range raise
        OverflowError here.
        """
        value = sum_terms(terms)
        if type(value) is not float:
            if is_exact(value):
                return _compare_exact(self, value, max(map(abs, terms), default=0))
            value = float(value)
        scale = float(max(map(abs, terms)))
        size = abs(value)
        if not (size < math.inf and scale < math.inf):
            raise OverflowError(_OVERFLOW)
        denom = self.eps * (scale if scale > MIN_NORMAL else MIN_NORMAL)
        if denom == 0.0:
            margin = math.inf if value > 0 else (-math.inf if value < 0 else 0.0)
        else:
            margin = value / denom
        s = 0 if size <= denom else (1 if value > 0 else -1)
        return s, value, margin, abs(margin) < 10.0

    def margin(self, value: Number, scale: float) -> float:
        v = float(value)
        denom = self.eps * (scale if scale > MIN_NORMAL else MIN_NORMAL)
        if denom == 0.0:
            return math.inf if v > 0 else (-math.inf if v < 0 else 0.0)
        return v / denom


DEFAULT_TOL = Tolerance()


def _compare_exact(tol: Tolerance, total, largest, den: int = 1) -> Tuple[int, float, float, bool]:
    """``Tolerance.compare_terms`` on exact terms t_i / den, given their sum and max |t_i|.

    The terms may be ints over a common ``den`` (a weighted-homogeneous
    predicate at integer lattice coefficients) or, with den = 1, any
    rationals.  int / int and ``float(Fraction)`` both round correctly, so
    value and margin equal those of the terms divided out; beyond the float
    range both raise OverflowError.
    """
    if den == 1:
        value, scale = float(total), float(largest)
    else:
        value, scale = total / den, largest / den
    s = (total > 0) - (total < 0)
    return s, value, tol.margin(value, scale), s == 0


def _lattice(values, point):
    """For rational coefficients values = (a, b, c, ...), the ints
    point(la, l^2 b, l^3 c, ...) and l, four times the lcm of the denominators;
    None for float values.

    Every predicate is weighted-homogeneous, so its sign at the values is its
    sign at the lattice point, and its terms there are ints.  The factor 4
    makes the quartic's d-cubic A, B, C integers there too (quartic._d_cubic).
    """
    if type(values[0]) is float:  # a polynomial holds all floats or all Fractions
        return None
    lam = 4 * math.lcm(*(v.denominator for v in values))
    ints, power = [], 1
    for v in values:
        power *= lam
        ints.append(v.numerator * (power // v.denominator))
    return point(*ints), lam


def _int_sign(terms) -> int:
    total = sum(terms)
    return (total > 0) - (total < 0)


def _sign_test(values, point, tol: Tolerance):
    """(at, l, sign): the lattice point and l of rational values, else
    point(*values) and None.  ``sign(terms(at))`` is the sign at the values of
    the weighted-homogeneous predicate ``terms``, exact on the lattice and
    tolerance-guarded for floats."""
    lattice = _lattice(values, point)
    if lattice is not None:
        return (*lattice, _int_sign)
    return point(*values), None, tol.sign_terms


def _recorded(cascade, table, values, point, tol: Tolerance):
    """(cascade(sign), comparisons, at, l), where ``sign(name)`` makes and
    records the comparison ``table[name] = (terms, weight)`` at the
    coefficients values, on the point ``at`` and l of _sign_test.  A lattice
    term of weight w is l^w times the term at the values, so value and margin
    are theirs, bit for bit."""
    at, lam, _ = _sign_test(values, point, tol)
    comparisons = []

    def sign(name: str) -> int:
        predicate, weight = table[name]
        terms = predicate(at)
        if lam is None:
            cmp = Comparison(name, *tol.compare_terms(terms))
        else:
            cmp = Comparison(name, *_compare_exact(
                tol, sum(terms), max(map(abs, terms)), lam ** weight))
        comparisons.append(cmp)
        return cmp.sign

    return cascade(sign), comparisons, at, lam


def sort_key_complex(z: complex):
    """Deterministic ordering for complex values (real part, then imaginary)."""
    return (z.real, z.imag)
