"""Cubic classification, trigonometric roots, vertex triangle and isolation intervals.

The three real roots of x^3 + a x^2 + b x + c (when they exist) are the
x-projections of an equilateral triangle whose incircle is centered at -a/3
with radius r = sqrt(a^2-3b)/3.  Varying the free term rotates that triangle,
which is exactly what the trigonometric root formulas parameterize.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .errors import NoTriangle, OutOfRange
from .numeric import (
    _OVERFLOW,
    DEFAULT_TOL,
    Comparison,
    Tolerance,
    _lattice,
    _recorded,
    _sign_test,
    sum_terms,
)
from .poly import Cubic, RootSet, cubic_discriminant_terms, root_set_from_values

SQRT3 = math.sqrt(3.0)


class CubicKind(Enum):
    THREE_DISTINCT_REAL = "three_distinct_real"
    DOUBLE_PLUS_SINGLE = "double_plus_single"
    TRIPLE_REAL = "triple_real"
    ONE_REAL_PLUS_COMPLEX_PAIR = "one_real_plus_complex_pair"


class CubicThresholds(NamedTuple):
    """Free-term band [c2, c1] inside which three real roots exist; c0 is its midpoint."""

    c0: float
    c1: float
    c2: float


class TriangleData(NamedTuple):
    """Vertex triangle of a cubic with three real roots (descending order x1 >= x2 >= x3)."""

    centroid_x: float
    incircle_radius: float
    side: float
    theta: float
    mu1: float
    mu2: float
    nu1: float
    nu2: float
    nu3: float
    xi1: float
    xi2: float
    vertices: Tuple[Tuple[float, float], ...]


class CubicClassification(NamedTuple):
    kind: CubicKind
    thresholds: Optional[CubicThresholds]
    triangle: Optional[TriangleData]
    comparisons: Tuple[Comparison, ...]


# --- the three sign predicates: terms whose sum has the sign of one comparison -------
# the discriminant (positive iff c lies strictly inside (c2, c1)) is
# poly.cubic_discriminant_terms; a _Point holds floats or a lattice point's ints
_Point = namedtuple("_Point", "a b c")


def _gap_terms(cu):
    # a^2 - 3b: positive iff the cubic has two distinct critical points
    a = cu.a
    return (a * a, -3 * cu.b)


def _triple_terms(cu):
    # 27 (c - a^3/27): with a^2 = 3b, zero iff -a/3 is a triple root
    return (27 * cu.c, -cu.a ** 3)


def _acos_numerator_terms(a, b, c):
    # 2a^3 - 9ab + 27c = 27 (c - c0), c0 = -2a^3/27 + ab/3 the band midpoint
    return (2 * a ** 3, -9 * a * b, 27 * c)


#: comparison name -> (terms at a Cubic or _Point, weight w), as quartic._COMPARISONS
_COMPARISONS = {
    "a2_vs_3b": (_gap_terms, 2),
    "c_band_via_disc": (cubic_discriminant_terms, 6),
    "c_vs_a3_over_27": (_triple_terms, 3),
}


def _cascade(sign) -> CubicKind:
    """The cubic's decision tree, written once; ``sign(name)`` answers one
    comparison of _COMPARISONS with -1, 0 or 1, and a path asks each once."""
    s2_sign = sign("a2_vs_3b")
    if s2_sign > 0:
        disc_sign = sign("c_band_via_disc")
        if disc_sign >= 0:
            return (CubicKind.THREE_DISTINCT_REAL if disc_sign > 0
                    else CubicKind.DOUBLE_PLUS_SINGLE)
    elif s2_sign == 0 and sign("c_vs_a3_over_27") == 0:
        # degenerate triangle; triple root only if c sits exactly at a^3/27
        return CubicKind.TRIPLE_REAL
    return CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR


def classify_cubic(cu: Cubic, tol: Tolerance = DEFAULT_TOL) -> CubicClassification:
    """Root-nature verdict from coefficient sign tests alone.

    Each predicate (a^2 - 3b, the discriminant, c against a^3/27) is tested
    at most once and recorded in ``comparisons``; the thresholds and the
    triangle are built from those decisions.  Exact input is tested on its
    integer lattice point (numeric._lattice), with no Fraction arithmetic.
    """
    kind, comparisons, _, _ = _recorded(_cascade, _COMPARISONS, Cubic._values(cu), _Point, tol)
    thresholds = triangle = None
    if comparisons[0].sign > 0:
        a, b = float(cu.a), float(cu.b)
        # a^2 - 3b as its comparison's value: a float sum, or the exact gap
        # rounded once, which keeps the decided sign
        s2 = comparisons[0].value
        c0 = -sum_terms(_acos_numerator_terms(a, b, 0.0)) / 27.0
        half = 2.0 / 27.0 * math.sqrt(s2 ** 3)
        thresholds = CubicThresholds(c0=c0, c1=c0 + half, c2=c0 - half)
        # no triangle where (a^2 - 3b)^(3/2) underflows: no arccos argument to rotate by
        if kind is not CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR and math.sqrt(s2) ** 3 > 0.0:
            num = sum_terms(_acos_numerator_terms(a, b, float(cu.c)))
            if cu.is_exact:  # its numerator 27 (c - c0) likewise: exact, rounded once
                at, lam = _lattice(Cubic._values(cu), _Point)
                num = sum_terms(_acos_numerator_terms(*at)) / lam ** 3
            triangle = _triangle(a, s2, num)
    return CubicClassification(kind, thresholds, triangle, tuple(comparisons))


def _acos_argument(num: float, s2: float) -> float:
    """The arccos argument w = -27 (c - c0) / (2 (a^2 - 3b)^(3/2)) of the
    trigonometric roots, for num = 27 (c - c0) and s2 = a^2 - 3b with a nonzero
    float (s2)^(3/2).

    |w| <= 1 just where the discriminant is >= 0, but w is not tested here:
    the discriminant's sign decides, and w is only evaluated.
    """
    return -num / (2.0 * math.sqrt(s2) ** 3)


def _angle(w: float) -> float:
    """The rotation angle theta in [0, pi/3], with w clamped into [-1, 1]."""
    return math.acos(max(-1.0, min(1.0, w))) / 3.0


def _three_roots(third, amp, theta, cos=math.cos):
    """The trigonometric roots at rotation angle theta, x1 >= x2 >= x3 when real."""
    return [
        third + amp * cos(theta),
        third - amp * cos(theta + math.pi / 3.0),
        third - amp * cos(theta - math.pi / 3.0),
    ]


def _triangle(a: float, s2: float, num: float) -> TriangleData:
    """The vertex triangle once a^2 - 3b = s2 > 0 and a discriminant >= 0 are
    decided; num is the arccos numerator 27 (c - c0)."""
    r = math.sqrt(s2) / 3.0
    third = -a / 3.0
    theta = _angle(_acos_argument(num, s2))
    x1, x2, x3 = sorted(_three_roots(third, 2.0 / 3.0 * math.sqrt(s2), theta), reverse=True)
    return TriangleData(
        centroid_x=third,
        incircle_radius=r,
        side=math.sqrt(12.0) * r,
        theta=theta,
        mu1=third + r,
        mu2=third - r,
        nu1=third + SQRT3 * r,
        nu2=third,
        nu3=third - SQRT3 * r,
        xi1=third - 2.0 * r,
        xi2=third + 2.0 * r,
        vertices=(
            (x1, (x2 - x3) / SQRT3),
            (x2, (x3 - x1) / SQRT3),
            (x3, (x1 - x2) / SQRT3),
        ),
    )


def viete_values(cu: Cubic, tol: Tolerance = DEFAULT_TOL):
    """Raw trigonometric root values for the count of real roots that _cascade
    decides, by unrecorded sign tests on cu itself: quartic reports read these
    on every float p', where a lattice point would only cost time.

    Returns ``("three", [x1, x2, x3])`` in descending order x1 >= x2 >= x3
    for three real roots, ``("triple", x)`` for a triple root x, otherwise
    ``("one", x)`` where x is the single real root.  Raises OverflowError
    when a sign test overflows.
    """
    signs = []

    def sign(name: str) -> int:
        signs.append(tol.sign_terms(_COMPARISONS[name][0](cu)))
        return signs[-1]

    one = _cascade(sign) is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR
    return _decided_values(cu, signs[0], not one)


def _decided_values(cu: Cubic, s2_sign: int, three: bool):
    """viete_values once the sign of a^2 - 3b (``s2_sign``) and whether the real
    roots, counted by multiplicity, are ``three`` are decided.

    Only the decided count is evaluated: the arccos argument w is clamped
    into [-1, 1] for three real roots and moved just outside it for one.
    ``s2_sign`` counts as 0 when a^2 - 3b, rounded to floats, does not share
    it (a sign decided on exact coefficients) or (a^2 - 3b)^(3/2) is below
    float resolution: a degenerate triangle.  Three real roots with
    ``s2_sign`` 0 or below are the triple root -a/3.
    """
    a, b, c = float(cu.a), float(cu.b), float(cu.c)
    if c == 0.0 and not three:
        return "one", 0.0  # x (x^2 + a x + b), whose quadratic has no real root
    s2 = a * a - 3.0 * b
    if s2_sign * s2 <= 0.0 or 2.0 * math.sqrt(abs(s2)) ** 3 == 0.0:
        s2_sign = 0
    third = -a / 3.0
    if s2_sign > 0:
        amp = 2.0 / 3.0 * math.sqrt(s2)
        w = _acos_argument(sum_terms(_acos_numerator_terms(a, b, c)), s2)
        if three:
            return "three", _three_roots(third, amp, _angle(w))
        w = math.copysign(max(abs(w), math.nextafter(1.0, 2.0)), w)
    elif three:
        return "triple", third
    elif s2_sign < 0:
        # mirrored formulas: inverted radical signs, and the product relation
        # flips the arccos argument sign as well
        s = cmath.sqrt(complex(s2))
        w = sum_terms(_acos_numerator_terms(a, b, c)) / (2.0 * s ** 3)
        amp = -(2.0 / 3.0 * s)
    if s2_sign and cmath.isfinite(w):
        return "one", _single_real(third, amp, w)
    # a^2 - 3b is 0, or |w| > 1e308 as 2|a^2 - 3b|^(3/2) is subnormal: then
    # c - c0 so outweighs a^2 - 3b that the cube-root formula is exact to rounding
    shift = c - a ** 3 / 27.0
    return "one", third - math.copysign(abs(shift) ** (1.0 / 3.0), shift)


def _single_real(third, amp, w) -> float:
    """The real one of the trigonometric roots for an arccos argument w outside [-1, 1]."""
    candidates = _three_roots(third, amp, cmath.acos(w) / 3.0, cmath.cos)
    return min(candidates, key=lambda z: abs(z.imag)).real


def viete_roots(cu: Cubic, tol: Tolerance = DEFAULT_TOL) -> RootSet:
    """RootSet via the trigonometric formulas (all cases, complex-safe), held
    to classify_cubic's verdict.

    Raises OverflowError when a sign test or the formulas overflow.
    """
    return _verdict_roots(cu, classify_cubic(cu, tol))


def _root_set(cu: Cubic, kind, payload, distinct: bool) -> RootSet:
    """The RootSet of viete_values' (kind, payload).  Values within 1e-6 of the
    largest |root| merge into a double unless the discriminant's sign test
    read three ``distinct`` roots: next to a far root the formulas cannot
    resolve a near pair, so only that test tells a double from a close pair."""
    if not all(math.isfinite(v) for v in (payload if kind == "three" else (payload,))):
        raise OverflowError(_OVERFLOW)
    cu_f = cu.as_float()
    if kind == "triple":
        return RootSet(((payload, 3),), 0, (abs(cu_f(payload)),), 3)
    if kind == "one":
        return RootSet(((payload, 1),), 1, (abs(cu_f(payload)),), 3)
    values = sorted(payload)
    residuals = [abs(cu_f(v)) for v in values]
    return root_set_from_values(values, residuals, 3, merge_tol=0.0 if distinct else 1e-6)


def _verdict_roots(cu: Cubic, cls: CubicClassification) -> RootSet:
    """The roots for the verdict ``cls``, with no sign test of their own: three
    real roots, counted by multiplicity, for a two- or three-real verdict, one
    and a complex pair for a one-real verdict."""
    one = cls.kind is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR
    kind, payload = _decided_values(cu, cls.comparisons[0].sign, not one)
    return _root_set(cu, kind, payload, cls.kind is CubicKind.THREE_DISTINCT_REAL)


def rotation_angle(cu: Cubic, tol: Tolerance = DEFAULT_TOL) -> float:
    """Triangle rotation angle in [0, pi/3]; 0 at c=c2, pi/6 at c=c0, pi/3 at c=c1.

    It is classify_cubic's triangle.theta.  Raises OutOfRange when a^2 - 3b > 0
    but the discriminant reads < 0, else NoTriangle when there is no triangle.
    """
    cls = classify_cubic(cu, tol)
    if cls.thresholds is not None and cls.kind is CubicKind.ONE_REAL_PLUS_COMPLEX_PAIR:
        raise OutOfRange(f"the discriminant reads < 0: free term c = {float(cu.c):.6g} "
                         "outside the band")
    if cls.triangle is None:
        raise NoTriangle(f"no vertex triangle: {cls.kind.value}")
    return cls.triangle.theta


def triangle_data(cu: Cubic, tol: Tolerance = DEFAULT_TOL) -> TriangleData:
    """All triangle landmarks; requires three real roots, not all equal."""
    cls = classify_cubic(cu, tol)
    if cls.triangle is None:
        raise NoTriangle(f"no vertex triangle: {cls.kind.value}")
    return cls.triangle


class CubicIsolation(NamedTuple):
    """Isolation intervals for the three real roots, ascending root order."""

    branch: str  # "low_c" for c <= c0, "high_c" for c >= c0
    intervals: Tuple[Tuple[float, float], ...]


def cubic_isolation_intervals(cu: Cubic, tol: Tolerance = DEFAULT_TOL) -> CubicIsolation:
    """Landmark intervals containing the sorted real roots (smallest first)."""
    return _isolation(cu, triangle_data(cu, tol), tol)


def _isolation(cu: Cubic, tri: TriangleData, tol: Tolerance) -> CubicIsolation:
    """The isolation intervals from the cubic's vertex triangle."""
    third = tri.centroid_x
    point, _, sign = _sign_test(Cubic._values(cu), _Point, tol)
    if sign(_acos_numerator_terms(*point)) <= 0:
        intervals = (
            (tri.nu3, tri.mu2),
            (tri.mu2, third),
            (tri.nu1, tri.xi2),
        )
        return CubicIsolation("low_c", intervals)
    intervals = (
        (tri.xi1, tri.nu3),
        (third, tri.mu1),
        (tri.mu1, tri.nu1),
    )
    return CubicIsolation("high_c", intervals)
