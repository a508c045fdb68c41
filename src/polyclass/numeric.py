"""Tolerance-aware sign tests shared by every classifier.

All threshold decisions in the library reduce to the sign of a polynomial
expression in the input coefficients.  In floating point, a sign is only
trusted when the summed value exceeds ``eps`` times the magnitude of the
largest term in the expression; anything smaller counts as zero.  Below
the normal float range precision is absolute rather than relative, so the
scale never counts as less than the smallest normal float.  With
``fractions.Fraction`` coefficients the same tests are exact and the
tolerance is ignored.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from numbers import Rational
from operator import add
from typing import Sequence, Tuple, Union

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


@dataclass(frozen=True)
class Comparison:
    """One threshold decision: sign and signed margin in tolerance units (value - threshold)."""

    name: str
    sign: int
    value: float
    margin_units: float
    fragile: bool


_OVERFLOW = ("coefficient magnitudes overflow the threshold expression; "
             "rescale the polynomial or use exact (Fraction) coefficients")


@dataclass(frozen=True)
class Tolerance:
    """Relative sign-test tolerance.

    ``sign_terms`` sums a list of monomial terms left to right and compares
    the total against ``eps`` times the largest term magnitude, or the
    smallest normal float if that is larger.  Exact (rational) terms
    short-circuit to an exact comparison.  ``compare_terms`` makes the same
    test and also returns the value, margin and fragile flag.
    """

    eps: float = DEFAULT_EPS

    def __post_init__(self):
        # with a NaN or negative eps no sign test reads 0, with an infinite one
        # every test does: either way a confident wrong verdict (NaN fails both
        # comparisons below)
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"tolerance eps must be finite and >= 0, got {self.eps!r}")

    def sign_terms(self, terms: Sequence[Number]) -> int:
        value = sum_terms(terms)
        if is_exact(value):
            return (value > 0) - (value < 0)
        value = float(value)
        scale = max((abs(float(t)) for t in terms), default=0.0)
        if not math.isfinite(value) or not math.isfinite(scale):
            raise OverflowError(_OVERFLOW)
        return self.sign(value, scale)

    def compare_terms(self, terms: Sequence[Number]) -> Tuple[int, float, float, bool]:
        """One comparison from a single sum: (sign, value, margin, fragile).

        ``value`` is the sum as a float and ``margin`` its signed distance
        from zero in tolerance units (1.0 == eps * scale).  An exact sum is
        fragile only when it is zero; a float sum when |margin| < 10.  Unlike
        ``sign_terms``, exact terms are converted to float as well, so
        Fractions beyond the float range raise OverflowError here.
        """
        total = sum_terms(terms)
        if is_exact(total):
            return _compare_exact(self, total, max(map(abs, terms), default=0))
        value = float(total)
        scale = max((abs(float(t)) for t in terms), default=0.0)
        if not math.isfinite(value) or not math.isfinite(scale):
            raise OverflowError(_OVERFLOW)
        margin = self.margin(value, scale)
        return self.sign(value, scale), value, margin, abs(margin) < 10.0

    def sign(self, value: Number, scale: float) -> int:
        if is_exact(value):
            return (value > 0) - (value < 0)
        v = float(value)
        if abs(v) <= self.eps * (scale if scale > MIN_NORMAL else MIN_NORMAL):
            return 0
        return 1 if v > 0 else -1

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


def sort_key_complex(z: complex):
    """Deterministic ordering for complex values (real part, then imaginary)."""
    return (z.real, z.imag)
