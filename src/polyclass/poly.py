"""Core polynomial types, closed-form discriminants and the Sturmian cross-check.

Monic polynomials are stored by their trailing coefficients.  Coefficients may
be floats (default) or ``fractions.Fraction``/int (exact mode); every formula
here is written so that exact inputs stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import AmbiguousSign, ImpossibleSignPattern
from .numeric import (
    DEFAULT_TOL,
    Number,
    Tolerance,
    all_exact,
    ensure_finite,
    is_exact,
)


def _lift(v: Number):
    """Promote ints to Fraction so that divisions stay exact; floats pass through."""
    return Fraction(v) if is_exact(v) else float(v)


def _normalize(lead: Number, coeffs: Sequence[Number]):
    if lead == 0:
        raise ValueError("leading coefficient must be nonzero")
    lead = _lift(lead)
    return tuple(_lift(c) / lead for c in coeffs)


@dataclass(frozen=True)
class Cubic:
    """Monic cubic x^3 + a x^2 + b x + c."""

    a: Number
    b: Number
    c: Number

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, ensure_finite(name, getattr(self, name)))

    @classmethod
    def from_leading(cls, lead: Number, a: Number, b: Number, c: Number) -> "Cubic":
        """Build from a general cubic lead*x^3 + a x^2 + b x + c, normalizing to monic."""
        return cls(*_normalize(lead, (a, b, c)))

    @property
    def is_exact(self) -> bool:
        return all_exact((self.a, self.b, self.c))

    def coefficients(self) -> Tuple[Number, ...]:
        return (1, self.a, self.b, self.c)

    def __call__(self, x):
        return ((x + self.a) * x + self.b) * x + self.c

    def derivative_monic(self):
        """Monic quadratic proportional to the derivative, with the factor 3."""
        a, b = _lift(self.a), _lift(self.b)
        return (2 * a / 3, b / 3), 3

    def as_float(self) -> "Cubic":
        return Cubic(float(self.a), float(self.b), float(self.c))


@dataclass(frozen=True)
class Quartic:
    """Monic quartic x^4 + a x^3 + b x^2 + c x + d."""

    a: Number
    b: Number
    c: Number
    d: Number

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, ensure_finite(name, getattr(self, name)))

    @classmethod
    def from_leading(cls, lead: Number, a, b, c, d) -> "Quartic":
        return cls(*_normalize(lead, (a, b, c, d)))

    @property
    def is_exact(self) -> bool:
        return all_exact((self.a, self.b, self.c, self.d))

    def coefficients(self) -> Tuple[Number, ...]:
        return (1, self.a, self.b, self.c, self.d)

    def __call__(self, x):
        return (((x + self.a) * x + self.b) * x + self.c) * x + self.d

    def derivative_monic(self) -> Tuple[Cubic, int]:
        """Monic cubic proportional to the derivative 4x^3+3ax^2+2bx+c, with the factor 4."""
        a, b, c = _lift(self.a), _lift(self.b), _lift(self.c)
        return Cubic(3 * a / 4, b / 2, c / 4), 4

    def as_float(self) -> "Quartic":
        return Quartic(float(self.a), float(self.b), float(self.c), float(self.d))


@dataclass(frozen=True)
class Quintic:
    """Monic quintic x^5 + p x^4 + q x^3 + r x^2 + s x + t."""

    p: Number
    q: Number
    r: Number
    s: Number
    t: Number

    def __post_init__(self):
        for name in ("p", "q", "r", "s", "t"):
            object.__setattr__(self, name, ensure_finite(name, getattr(self, name)))

    @classmethod
    def from_leading(cls, lead: Number, p, q, r, s, t) -> "Quintic":
        return cls(*_normalize(lead, (p, q, r, s, t)))

    @property
    def is_exact(self) -> bool:
        return all_exact((self.p, self.q, self.r, self.s, self.t))

    def coefficients(self) -> Tuple[Number, ...]:
        return (1, self.p, self.q, self.r, self.s, self.t)

    def __call__(self, x):
        return ((((x + self.p) * x + self.q) * x + self.r) * x + self.s) * x + self.t

    def derivative_monic(self) -> Tuple[Quartic, int]:
        p, q, r, s = _lift(self.p), _lift(self.q), _lift(self.r), _lift(self.s)
        return Quartic(4 * p / 5, 3 * q / 5, 2 * r / 5, s / 5), 5


@dataclass(frozen=True)
class RootSet:
    """Sorted real roots with multiplicities plus the count of conjugate pairs."""

    roots: Tuple[Tuple[float, int], ...]
    complex_pairs: int
    residuals: Tuple[float, ...]
    degree: int

    def __post_init__(self):
        if len(self.residuals) != len(self.roots):
            raise ValueError("one residual per root required")
        total = sum(m for _, m in self.roots)
        if any(m < 1 for _, m in self.roots):
            raise ValueError("multiplicities must be positive")
        if total + 2 * self.complex_pairs != self.degree:
            raise ValueError(
                f"multiplicities {total} + 2*{self.complex_pairs} pairs != degree {self.degree}"
            )
        values = [v for v, _ in self.roots]
        if any(x >= y for x, y in zip(values, values[1:])):
            raise ValueError("roots must be strictly increasing")

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
    order = sorted(range(len(values)), key=lambda i: values[i])
    reach = merge_tol * max(map(abs, values)) if merge_tol else 0.0
    merged: list[list] = []
    for i in order:
        v, r = float(values[i]), float(residuals[i])
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
    a, b, c = cu.a, cu.b, cu.c
    return (
        -27 * c * c,
        18 * a * b * c,
        -4 * a ** 3 * c,
        a * a * b * b,
        -4 * b ** 3,
    )


def discriminant_cubic(cu: Cubic) -> Number:
    """delta_3 = -27c^2 + (18ab - 4a^3)c + a^2 b^2 - 4b^3; positive iff three distinct real roots."""
    return sum(cubic_discriminant_terms(cu))


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


def quartic_disc_scale(q: Quartic) -> float:
    """Largest monomial magnitude of the discriminant (the tolerance scale)."""
    return max(abs(float(t)) for t in quartic_discriminant_terms(q))


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


# --- Sturmian constants ---------------------------------------------------------

@dataclass(frozen=True)
class SturmConstants:
    """Leading Sturm-function coefficients of a quartic, modulo positive factors.

    s0 and s1 are identically 1; s5 equals the quartic discriminant.
    ``scales`` holds the tolerance scale of each of s3, s4, s5 when the
    constants were produced by :func:`sturm_constants`.
    """

    s0: Number
    s1: Number
    s3: Number
    s4: Number
    s5: Number
    scales: Tuple[float, float, float] = field(default=(1.0, 1.0, 1.0))


def sturm_constants(q: Quartic) -> SturmConstants:
    a, b, c, d = q.a, q.b, q.c, q.d
    s3_terms = (3 * a * a, -8 * b)
    s4_terms = (
        -3 * a ** 3 * c,
        a * a * b * b,
        -6 * a * a * d,
        14 * a * b * c,
        -4 * b ** 3,
        16 * b * d,
        -18 * c * c,
    )
    s5_terms = quartic_discriminant_terms(q)
    scale = lambda terms: max((abs(float(t)) for t in terms), default=0.0)
    return SturmConstants(
        s0=1,
        s1=1,
        s3=sum(s3_terms),
        s4=sum(s4_terms),
        s5=sum(s5_terms),
        scales=(scale(s3_terms), scale(s4_terms), scale(s5_terms)),
    )


def _sign_variations(signs: Sequence[int]) -> int:
    nonzero = [s for s in signs if s != 0]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if x * y < 0)


def cayley_real_root_count(sc: SturmConstants, tol: Tolerance = DEFAULT_TOL) -> int:
    """Real-root count of the quartic from the Sturmian sign sequences at +/- infinity.

    A nonzero discriminant (s5) is required; repeated-root cases belong to
    the full classifier and raise AmbiguousSign.  Zeros of s3 or s4 shorten
    the Sturm chain, which caps the variation excess below four, so they
    resolve to zero real roots when s5 > 0 and change nothing when s5 < 0.
    The combination s3<0, s4>0, s5<0 cannot occur for a real quartic and
    raises ImpossibleSignPattern.
    """
    s3, s4, s5 = (
        tol.sign(value, scale)
        for value, scale in zip((sc.s3, sc.s4, sc.s5), sc.scales)
    )
    if s5 == 0:
        raise AmbiguousSign(
            "discriminant within tolerance of zero; use the full classifier"
        )
    if s3 < 0 and s4 > 0 and s5 < 0:
        raise ImpossibleSignPattern(
            "sign pattern s3<0, s4>0, s5<0 cannot occur for a real quartic"
        )
    if s5 < 0:
        return 2
    if s3 > 0 and s4 > 0:
        at_plus = (1, 1, s3, s4, s5)
        at_minus = (1, -1, s3, -s4, s5)
        assert _sign_variations(at_minus) - _sign_variations(at_plus) == 4
        return 4
    return 0
