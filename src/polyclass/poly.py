"""Core polynomial types and closed-form discriminants.

Monic polynomials are stored by their trailing coefficients, in one
arithmetic per polynomial: all ``fractions.Fraction`` when every coefficient
is rational (ints and numpy integers included), else all float.  A single
float coefficient makes the whole polynomial float.  Every formula here is
written so that exact inputs stay exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence, Tuple

from .numeric import Number, _Frozen

_FLOAT, _FRACTION, _FRACTION_INT = {float}, {Fraction}, {Fraction, int}


def _python_fraction(v) -> Fraction:
    # parts rebuilt as Python ints: numpy integers (Rational too) would wrap
    # at 2^63, and a Fraction built from them keeps them as its parts
    num, den = v.numerator, v.denominator
    if isinstance(v, Fraction) and type(num) is int and type(den) is int:
        return v
    return Fraction(int(num)) if den == 1 else Fraction(int(num), int(den))


def _uniform(values: Tuple) -> Tuple:
    """``values`` in one arithmetic: all Fraction (with int parts) when every value
    is rational, else all float; ValueError for a non-finite value.  Returns
    ``values`` itself when it already conforms."""
    kinds = set(map(type, values))
    if kinds == _FRACTION and all(
            type(v.numerator) is int and type(v.denominator) is int for v in values):
        return values
    if kinds <= _FRACTION_INT or (
            float not in kinds and all(isinstance(v, Rational) for v in values)):
        return tuple(map(_python_fraction, values))
    if kinds != _FLOAT:
        values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"coefficients must be finite, got {values!r}")
    return values


class _Monic(_Frozen):
    """Shared body of the monic classes; a subclass lists its coefficient
    fields in ``__slots__`` and declares an ``__init__`` that hands them to
    ``_hold``, its Horner ``__call__`` and its ``derivative_monic``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def _hold(self, values: Tuple) -> None:
        for name, v in zip(self.__slots__, _uniform(values)):
            object.__setattr__(self, name, v)

    @classmethod
    def from_leading(cls, lead: Number, *coeffs: Number):
        """Build from lead*x^n + ..., normalizing to monic."""
        lead, *coeffs = _uniform((lead, *coeffs))
        if lead == 0:
            raise ValueError("leading coefficient must be nonzero")
        return cls(*(c / lead for c in coeffs))

    @property
    def is_exact(self) -> bool:
        return type(self._values(self)[0]) is not float

    def coefficients(self) -> Tuple[Number, ...]:
        return (1, *self._values(self))

    def as_float(self):
        """This polynomial in float; itself when it is float already, as
        coefficients are all float or all Fraction and never change."""
        if type(self._values(self)[0]) is float:
            return self
        return type(self)(*map(float, self._values(self)))


class Cubic(_Monic):
    """Monic cubic x^3 + a x^2 + b x + c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Number, b: Number, c: Number):
        self._hold((a, b, c))

    def __call__(self, x):
        return ((x + self.a) * x + self.b) * x + self.c

    def derivative_monic(self):
        """Monic quadratic proportional to the derivative, with the factor 3."""
        return (2 * self.a / 3, self.b / 3), 3


class Quartic(_Monic):
    """Monic quartic x^4 + a x^3 + b x^2 + c x + d."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Number, b: Number, c: Number, d: Number):
        self._hold((a, b, c, d))

    def __call__(self, x):
        return (((x + self.a) * x + self.b) * x + self.c) * x + self.d

    def derivative_monic(self) -> Tuple[Cubic, int]:
        """Monic cubic proportional to the derivative 4x^3+3ax^2+2bx+c, with the factor 4."""
        return Cubic(3 * self.a / 4, self.b / 2, self.c / 4), 4


class Quintic(_Monic):
    """Monic quintic x^5 + p x^4 + q x^3 + r x^2 + s x + t."""

    __slots__ = ("p", "q", "r", "s", "t")

    def __init__(self, p: Number, q: Number, r: Number, s: Number, t: Number):
        self._hold((p, q, r, s, t))

    def __call__(self, x):
        return ((((x + self.p) * x + self.q) * x + self.r) * x + self.s) * x + self.t

    def derivative_monic(self) -> Tuple[Quartic, int]:
        return Quartic(4 * self.p / 5, 3 * self.q / 5, 2 * self.r / 5, self.s / 5), 5


class _RootSet(NamedTuple):
    roots: Tuple[Tuple[float, int], ...]
    complex_pairs: int
    residuals: Tuple[float, ...]
    degree: int


class RootSet(_RootSet):
    """Sorted real roots with multiplicities plus the count of conjugate pairs."""

    __slots__ = ()

    def __new__(cls, roots, complex_pairs, residuals, degree):
        if len(residuals) != len(roots):
            raise ValueError("one residual per root required")
        # one pass; last starts at NaN, which compares False with every value, so
        # the first root has no predecessor and a NaN root fails no order test
        total, increasing, last = 0, True, math.nan
        for v, m in roots:
            if m < 1:
                raise ValueError("multiplicities must be positive")
            total += m
            if last >= v:
                increasing = False
            last = v
        if total + 2 * complex_pairs != degree:
            raise ValueError(
                f"multiplicities {total} + 2*{complex_pairs} pairs != degree {degree}"
            )
        if not increasing:
            raise ValueError("roots must be strictly increasing")
        return tuple.__new__(cls, (roots, complex_pairs, residuals, degree))

    @property
    def real_count(self) -> int:
        return sum(m for _, m in self.roots)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(v for v, _ in self.roots)

    @property
    def multiplicities(self) -> Tuple[int, ...]:
        return tuple(m for _, m in self.roots)

    def expanded(self) -> Tuple[float, ...]:
        """Real roots repeated by multiplicity, ascending."""
        out = []
        for v, m in self.roots:
            out.extend([v] * m)
        return tuple(out)


def root_set_from_values(values: Sequence[float], residuals: Sequence[float],
                         degree: int, complex_pairs: int = 0,
                         merge_tol: float = 0.0) -> RootSet:
    """Assemble a RootSet from possibly repeated values, merging within merge_tol * max|value|."""
    pairs = sorted(zip(values, residuals), key=itemgetter(0))  # stable: ties keep their order
    reach = merge_tol * max(map(abs, values)) if merge_tol else 0.0
    merged: list[list] = []
    for v, r in pairs:
        v, r = float(v), float(r)
        if merged and abs(v - merged[-1][0]) <= reach:
            prev = merged[-1]
            prev[0] = (prev[0] * prev[1] + v) / (prev[1] + 1)
            prev[1] += 1
            prev[2] = max(prev[2], r)
        else:
            merged.append([v, 1, r])
    return RootSet(
        roots=tuple((m[0], m[1]) for m in merged),
        complex_pairs=complex_pairs,
        residuals=tuple(m[2] for m in merged),
        degree=degree,
    )


# --- closed-form discriminants -------------------------------------------------

def cubic_discriminant_terms(cu: Cubic) -> Tuple:
    """Monomials of -27c^2 + (18ab - 4a^3)c + a^2 b^2 - 4b^3, positive iff three distinct real roots."""
    a, b, c = cu.a, cu.b, cu.c
    return (
        -27 * c * c,
        18 * a * b * c,
        -4 * a ** 3 * c,
        a * a * b * b,
        -4 * b ** 3,
    )


def _powers(a, b, c):
    """Powers 2 to 4 of a, b, c as products: float and ndarray round alike, and
    numpy's ``**`` would call ``pow`` per element."""
    a2, b2, c2 = a * a, b * b, c * c
    a3, b3, c3 = a2 * a, b2 * b, c2 * c
    return a2, b2, c2, a3, b3, c3, a3 * a, b3 * b, c3 * c


def quartic_discriminant_terms(q: Quartic) -> Tuple:
    """Monomials of the quartic discriminant; ``q`` may hold ndarray coefficients."""
    a, b, c, d = q.a, q.b, q.c, q.d
    a2, b2, c2, a3, b3, c3, a4, b4, c4 = _powers(a, b, c)
    return (
        256 * d * d * d,
        -27 * a4 * d * d,
        144 * a2 * b * d * d,
        -192 * a * c * d * d,
        -128 * b2 * d * d,
        18 * a3 * b * c * d,
        -4 * a2 * b3 * d,
        -6 * a2 * c2 * d,
        -80 * a * b2 * c * d,
        16 * b4 * d,
        144 * b * c2 * d,
        -4 * a3 * c3,
        a2 * b2 * c2,
        18 * a * b * c3,
        -4 * b3 * c2,
        -27 * c4,
    )


def discriminant_quartic(q: Quartic) -> Number:
    """The quartic discriminant; >0 for four or zero real roots, <0 for exactly two."""
    return sum(quartic_discriminant_terms(q))


def quartic_disc_d_derivative_terms(q: Quartic) -> Tuple:
    """Terms of d(Delta)/dd, the discriminant derivative along the free term."""
    a, b, c, d = q.a, q.b, q.c, q.d
    a2, b2, c2, a3, b3, _, a4, b4, _ = _powers(a, b, c)
    return (
        768 * d * d,
        -54 * a4 * d,
        288 * a2 * b * d,
        -384 * a * c * d,
        -256 * b2 * d,
        18 * a3 * b * c,
        -4 * a2 * b3,
        -6 * a2 * c2,
        -80 * a * b2 * c,
        16 * b4,
        144 * b * c2,
    )


def quartic_disc_d_second_terms(q: Quartic) -> Tuple:
    """Terms of d^2(Delta)/dd^2."""
    a, b, c, d = q.a, q.b, q.c, q.d
    a2, b2, _, _, _, _, a4, _, _ = _powers(a, b, c)
    return (
        1536 * d,
        -54 * a4,
        288 * a2 * b,
        -384 * a * c,
        -256 * b2,
    )

