"""Complete 32-case root classification of the quartic by coefficient thresholds.

The discriminant of x^4 + a x^3 + b x^2 + c x + d is cubic in the free term d.
Comparing b against 3a^2/8, c against the band [C2, C1] around C0, and d
against the roots of that cubic pins down the exact root nature.  Every
decision below is the sign of a polynomial in (a, b, c, d), so the whole
cascade is exact for Fraction inputs and tolerance-guarded for floats.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from fractions import Fraction
from operator import rshift
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from .cubic import _decided_values, _Point, viete_values
from .numeric import (
    _OVERFLOW,
    DEFAULT_TOL,
    Comparison,
    Number,
    Tolerance,
    _recorded,
    _sign_test,
    sum_terms,
)
from .oracle import _eval_noise, solve
from .poly import (
    Quartic,
    RootSet,
    _powers,
    quartic_disc_d_derivative_terms,
    quartic_disc_d_second_terms,
    quartic_discriminant_terms,
    root_set_from_values,
)

ROMAN = (
    "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x",
    "xi", "xii", "xiii", "xiv", "xv", "xvi", "xvii", "xviii", "xix", "xx",
    "xxi", "xxii", "xxiii", "xxiv", "xxv", "xxvi", "xxvii", "xxviii", "xxix", "xxx",
    "xxxi", "xxxii",
)

ClassificationCase = Enum("ClassificationCase", {r.upper(): r for r in ROMAN})


class Nature(Enum):
    NO_REAL = "no_real"
    TWO_EQUAL_REAL = "two_equal_real"
    TWO_DISTINCT_REAL = "two_distinct_real"
    FOUR_DISTINCT_REAL = "four_distinct_real"
    FOUR_REAL_DOUBLE_PAIR = "four_real_double_pair"
    TWO_DOUBLE_PAIRS = "two_double_pairs"
    TRIPLE_PLUS_SINGLE = "triple_plus_single"
    QUADRUPLE_ROOT = "quadruple_root"


class DoublePairPosition(Enum):
    LOWEST_TWO = "lowest_two"
    MIDDLE_TWO = "middle_two"
    HIGHEST_TWO = "highest_two"


#: real-root count and sorted multiplicity signature implied by each nature
NATURE_STRUCTURE = {
    Nature.NO_REAL: (0, ()),
    Nature.TWO_EQUAL_REAL: (2, (2,)),
    Nature.TWO_DISTINCT_REAL: (2, (1, 1)),
    Nature.FOUR_DISTINCT_REAL: (4, (1, 1, 1, 1)),
    Nature.FOUR_REAL_DOUBLE_PAIR: (4, (1, 1, 2)),
    Nature.TWO_DOUBLE_PAIRS: (4, (2, 2)),
    Nature.TRIPLE_PLUS_SINGLE: (4, (1, 3)),
    Nature.QUADRUPLE_ROOT: (4, (4,)),
}

#: the natures with a repeated root, where the discriminant vanishes
_ZERO_DISC_NATURES = {n for n, (_, m) in NATURE_STRUCTURE.items() if max(m, default=0) > 1}


class QuarticThresholds(NamedTuple):
    """All free-term and linear-term thresholds of the classification.

    For exact input the fields that are rational functions of the coefficients
    (c_mid, abc, d_dagger, d_tilde and a triple d-root) are Fractions, each made
    once from integers of the lattice point (see numeric._lattice); the rest are
    floats.
    The d_roots are d - p(x) = -(x^4 + a x^3 + b x^2 + c x) at the real
    stationary points x of p: three, or one.
    """

    c_mid: Number  # C0
    c_hi: Optional[float]  # C1, real only when 3a^2 - 8b > 0
    c_lo: Optional[float]  # C2
    abc: Tuple[Number, Number, Number]  # monic cubic in d, disc/256
    d_roots: Tuple[Number, ...]  # (d1, d2, d3) descending, or (d0,)
    d_dagger: Optional[Number]  # double root of the d-cubic when its disc vanishes
    d_tilde: Optional[Number]  # simple root (the sign change) in the same situation


class _QuarticClassification(NamedTuple):
    case: ClassificationCase
    nature: Nature
    position: Optional[DoublePairPosition]
    closed_form_roots: Optional[RootSet]
    comparisons: Tuple[Comparison, ...]
    eps: float


class QuarticClassification(_QuarticClassification):
    """The verdict of classify_quartic.  ``_source`` rides along outside the
    fields, so out of equality and repr: the classified quartic, the tolerance,
    and the point and l (None for floats) of numeric._sign_test that the
    cascade tested on."""

    def __new__(cls, case, nature, position, closed_form_roots, comparisons, eps,
                _source: Tuple[Quartic, Tolerance, _Coeffs, Optional[int]]):
        self = tuple.__new__(cls, (case, nature, position, closed_form_roots, comparisons, eps))
        self._source = _source
        return self

    def __getnewargs_ex__(self):  # for copy and pickle
        return tuple(self), {"_source": self._source}

    @property
    def thresholds(self) -> QuarticThresholds:
        """quartic_thresholds of this verdict, built on first read."""
        # cached by hand: before Python 3.12 functools.cached_property takes a
        # lock on every first read, a cost a float classify report can measure
        thr = self.__dict__.get("_thresholds")
        if thr is None:
            thr = self.__dict__["_thresholds"] = quartic_thresholds(self)
        return thr


def c0_sign(comparisons) -> int:
    """The recorded sign of c - C0, which every path of _cascade decides."""
    return next(c.sign for c in comparisons if c.name == "c_vs_C0")


# --- the nine sign predicates: terms whose sum has the sign of one comparison ---------
# ``q`` is a _Coeffs point: coefficients without the Quartic checks (floats, Fractions,
# the ints of a lattice point, float64 arrays, or a prefix padded with 0).  Only + - *
# appear, so float and numpy round alike and Fraction or int input stays exact.

class _Coeffs(namedtuple("_Coeffs", "a b c d")):
    @property
    def d_cubic(self):
        """(A, B, C) of _d_cubic here, built on first read (cached by hand, as
        QuarticClassification.thresholds)."""
        abc = self.__dict__.get("_abc")
        if abc is None:
            abc = self.__dict__["_abc"] = _d_cubic(self.a, self.b, self.c)
        return abc


def _b_terms(q):
    # 8 (b - 3a^2/8)
    a = q.a
    return (8 * q.b, -3 * (a * a))


def _c0_terms(q):
    # 8 (c - C0), C0 = -a^3/8 + ab/2
    a = q.a
    return (8 * q.c, a * a * a, -4 * a * q.b)


def _band_terms(q):
    # 27 [4c^2 + a(a^2-4b)c - (b^2/3)(a^2 - 32b/9)] = 108 (c-C1)(c-C2)
    a, b, c = q.a, q.b, q.c
    a2, b2 = a * a, b * b
    return (108 * (c * c), 27 * (a2 * a) * c, -108 * a * b * c, -9 * a2 * b2, 32 * (b2 * b))


# the discriminant family lives in poly; these look its functions up per call
def _disc_terms(q):
    return quartic_discriminant_terms(q)


def _disc_slope_terms(q):
    return quartic_disc_d_derivative_terms(q)


def _disc_curvature_terms(q):
    return quartic_disc_d_second_terms(q)


def _d_quad_terms(q):
    # 256 (d - a^4/256)
    a = q.a
    return (256 * q.d, -(a * a * a * a))


def _d_vs_tilde_terms(q):
    # sign(d - d_tilde) scaled by A^2 - 3B > 0
    (A, B, C), d = q.d_cubic, q.d
    A2 = A * A
    return (A2 * d, -3 * B * d, A2 * A, -4 * A * B, 9 * C)


def _d_vs_dagger_terms(q):
    # sign(d - d_dagger) scaled by 2(A^2 - 3B) > 0
    (A, B, C), d = q.d_cubic, q.d
    return (2 * A * A * d, -6 * B * d, -9 * C, A * B)


def _d_cubic(a, b, c):
    """Coefficients (A, B, C) of the monic cubic in d equal to disc/256.

    Every division is by a power of two, 2^k.  256 (A, B, C) have integer
    coefficients (256A = -27a^4 + 144a^2 b - 192ac - 128b^2), so on a lattice point
    (ints, carrying the factors 4, 16, 64 of numeric._lattice) each quotient below
    is an integer, which >> k takes exactly.  Floats, float arrays and Fractions
    divide.
    """
    a2, b2, c2, a3, b3, c3, a4, b4, c4 = _powers(a, b, c)
    div = rshift if type(a) is int else _div
    A = div(div(-27 * a4, 7) + div(9 * a2 * b, 3) - div(3 * a * c, 1) - b2, 1)
    B = div(div(9 * a3 * b * c, 3) - div(a2 * b3, 2) - div(3 * a2 * c2, 3)
            - 5 * a * b2 * c + b4 + 9 * b * c2, 4)
    C = div(-a3 * c3 + div(a2 * b2 * c2, 2) + div(9 * a * b * c3, 1)
            - b3 * c2 - div(27 * c4, 2), 6)
    return A, B, C


def _div(x, k: int):
    """x / 2^k."""
    return x / (1 << k)


#: comparison name -> (terms at a _Coeffs point, weight w): every term at
#: (la, l^2 b, l^3 c, l^4 d) is l^w times the term at (a, b, c, d).  Both discriminant
#: comparisons read one predicate.
_COMPARISONS = {
    "b_vs_3a2_over_8": (_b_terms, 2),
    "c_vs_C0": (_c0_terms, 3),
    "c_band": (_band_terms, 6),
    "d_vs_d0_via_disc": (_disc_terms, 12),
    "d_vs_droots_via_disc": (_disc_terms, 12),
    "disc_d_slope": (_disc_slope_terms, 8),
    "disc_d_curvature": (_disc_curvature_terms, 4),
    "d_vs_a4_over_256": (_d_quad_terms, 4),
    "d_vs_d_tilde": (_d_vs_tilde_terms, 12),
    "d_vs_d_dagger": (_d_vs_dagger_terms, 12),
}
_ON_COEFFS = {name: terms for name, (terms, _) in _COMPARISONS.items()}


def _value(x, k, lam, w: int):
    """x / k at q, for a quantity of weight w that x / k gives at the point of
    _sign_test: a Fraction on the lattice (lam), else x / k."""
    return x / k if lam is None else Fraction(x, k * lam ** w)


def _c_mid(a, b, lam=None):
    """C0 = -a^3/8 + ab/2, where the c_vs_C0 predicate vanishes."""
    return _value(-sum_terms(_c0_terms(_Coeffs(a, b, 0, 0))), 8, lam, 3)


def _b_gap(a, b, lam=None):
    """3a^2 - 8b, the b_vs_3a2_over_8 predicate negated."""
    gap = -sum_terms(_b_terms(_Coeffs(a, b, 0, 0)))
    return gap if lam is None else Fraction(gap, lam ** 2)


def delta3_expanded(q: Quartic):
    """Discriminant of the d-cubic, straight from its closed form."""
    a, b, c = q.a, q.b, q.c
    sq = a ** 3 - 4 * a * b + 8 * c
    bracket = 4 * c * c + a * (a * a - 4 * b) * c - b * b * (a * a - 32 * b / 9) / 3
    return -314928 * sq * sq * bracket ** 3


def delta3(q: Quartic):
    """Same discriminant in factored shape: -K (c-C0)^2 [(c-C1)(c-C2)]^3.

    The product (c-C1)(c-C2) is evaluated through its defining quadratic, so
    this works (and stays exact for rational input) even when C1, C2 are a
    conjugate pair.  K = 1289945088 = 314928 * 64 * 64 makes the factored and
    expanded forms identical.
    """
    off_c0 = sum_terms(_c0_terms(q)) / 8
    band = sum_terms(_band_terms(q)) / 108
    return -1289945088 * off_c0 ** 2 * band ** 3


def _c_thresholds(point, lam, s_b: int):
    """C0, and the band edges C1 > C2 as floats when s_b < 0 (b < 3a^2/8), else None;
    point and lam as _sign_test gives them."""
    c0 = _c_mid(point.a, point.b, lam)
    if s_b >= 0:
        return c0, None, None
    half = math.sqrt(3.0) / 72.0 * math.sqrt(float(_b_gap(point.a, point.b, lam)) ** 3)
    return c0, float(c0) + half, float(c0) - half


def _require_finite(values) -> None:
    """OverflowError when a float among values is not finite; rationals and None pass."""
    for v in values:
        if type(v) is float and not math.isfinite(v):
            raise OverflowError(_OVERFLOW)


def quartic_thresholds(q: Union[Quartic, QuarticClassification],
                       tol: Tolerance = DEFAULT_TOL) -> QuarticThresholds:
    """Thresholds on c and d; rationally computable fields stay exact for exact input.

    ``q`` is a Quartic, or a QuarticClassification: a verdict's thresholds are
    those of its quartic, read off the signs it recorded and the point it was
    tested on, under its own tolerance (``tol`` is then ignored), with no sign
    test of their own.
    Exact input is read on its lattice point only, with no Fraction arithmetic.
    Off C0 and the band edges, the d-roots are d - p(x) at the real stationary
    points x of p: three with c strictly inside (C2, C1), else one.
    Raises OverflowError when a float threshold would not be finite.
    """
    if isinstance(q, QuarticClassification):
        # every path of _cascade records b and c against C0, and the band
        # whenever b < 3a^2/8, the only case that reads it below
        signs = {cmp.name: cmp.sign for cmp in q.comparisons}
        s_b, s_c0, s_band = signs["b_vs_3a2_over_8"], signs["c_vs_C0"], signs.get("c_band")
        q, _, point, lam = q._source
    else:
        point, lam, sign = _sign_test(Quartic._values(q), _Coeffs, tol)
        s_b, s_c0, s_band = sign(_b_terms(point)), sign(_c0_terms(point)), sign(_band_terms(point))
    A, B, C = point.d_cubic
    abc = (A, B, C) if lam is None else (
        Fraction(A, lam ** 4), Fraction(B, lam ** 8), Fraction(C, lam ** 12))
    _require_finite(abc)
    c0, c_hi, c_lo = _c_thresholds(point, lam, s_b)
    d_roots, dag, til = (), None, None
    if s_b == 0 and s_c0 == 0:
        d0 = _value(-sum_terms(_d_quad_terms(_Coeffs(point.a, 0, 0, 0))), 256, lam, 4)
        d_roots, til = (d0,), d0
    elif s_c0 == 0 or (s_b < 0 and s_band == 0):
        # repeated root d_dagger of the d-cubic, and its simple root d_tilde
        denom = 2 * (A * A - 3 * B)
        if denom != 0:
            num = 9 * C - A * B
            dag = _value(num, denom, lam, 4)
            til = -A - 2 * dag if lam is None else _value(-A * denom - 2 * num, denom, lam, 4)
    else:
        # p has three stationary points x just where Delta3 = -K (c - C0)^2
        # [(c - C1)(c - C2)]^3 > 0, inside the band, else one: a'^2 - 3b' of p'/4
        # is (3/16)(3a^2 - 8b).  disc is a positive multiple of the product of
        # the p(x), and so each real d-root is d - p(x) at a real x; an error in
        # x moves it only to second order, as p'(x) = 0.  0.0 - p(x) leaves a
        # zero d-root unsigned
        three = s_b < 0 and s_band < 0
        a, b, c = float(q.a), float(q.b), float(q.c)
        kind, xs = _decided_values(_Point(3 * a / 4, b / 2, c / 4), -s_b, three)
        if kind != "three":
            xs = (xs,) * (3 if three else 1)  # "triple": floats cannot part them
        d_roots = tuple(sorted([0.0 - _horner((a, b, c, 0.0), x)[0] for x in xs], reverse=True))
    _require_finite((c0, c_hi, c_lo, *d_roots, dag, til))
    return QuarticThresholds(c0, c_hi, c_lo, abc, d_roots, dag, til)


def _closed_form_roots(nature: Nature, q: Quartic, tol: Tolerance, s_c0: int):
    """Exact root values for the zero-discriminant natures; s_c0 is the sign of c - C0."""
    qf = q.as_float()
    a, b = qf.a, qf.b
    center = -a / 4.0
    if nature is Nature.QUADRUPLE_ROOT:
        return RootSet(((center, 4),), 0, (abs(qf(center)),), 4), None
    if nature is Nature.TWO_DOUBLE_PAIRS:
        s = math.sqrt(max(0.0, _b_gap(a, b)))
        lo, hi = center - s / 4.0, center + s / 4.0
        rs = root_set_from_values([lo, lo, hi, hi], [abs(qf(lo))] * 2 + [abs(qf(hi))] * 2, 4)
        return rs, None
    if nature is Nature.TRIPLE_PLUS_SINGLE:
        radius = math.sqrt(3.0) / 12.0 * math.sqrt(max(0.0, _b_gap(a, b)))
        on_high_side = s_c0 > 0  # c = C1 rather than C2
        triple = center + radius if on_high_side else center - radius
        single = center - 3 * radius if on_high_side else center + 3 * radius
        values = [triple] * 3 + [single]
        rs = root_set_from_values(values, [abs(qf(v)) for v in values], 4)
        return rs, None
    # double root at a stationary point, remaining roots by quadratic deflation
    u = min(_stationary_points(qf, tol), key=lambda x: abs(qf(x)))
    if nature is Nature.TWO_EQUAL_REAL:
        return RootSet(((u, 2),), 1, (abs(qf(u)),), 4), None
    # FOUR_REAL_DOUBLE_PAIR: p4 = (x-u)^2 (x^2 + ex + f)
    e = a + 2.0 * u
    f = b + 2.0 * a * u + 3.0 * u * u
    s = math.sqrt(max(0.0, e * e - 4.0 * f))
    v, w = (-e - s) / 2.0, (-e + s) / 2.0
    values = [u, u, v, w]
    rs = root_set_from_values(values, [abs(qf(x)) for x in values], 4)
    return rs, _pair_position(u, v, w)


def _stationary_points(qf: Quartic, tol: Tolerance) -> List[float]:
    """The real roots of p' by the Viete formulas (viete_values), descending:
    three when p's discriminant reads >= 0, else one."""
    kind, payload = viete_values(_Point(3 * qf.a / 4, qf.b / 2, qf.c / 4), tol)
    return list(payload) if kind == "three" else [payload]


def _horner(coeffs, x: float) -> Tuple[float, float]:
    """p(x) and p'(x) of the monic polynomial with trailing coefficients coeffs.

    For a quartic, p(x) is Quartic.__call__'s value bit for bit, and so the
    residual oracle.solve reports.
    """
    p, dp = 1.0, 0.0
    for c in coeffs:
        dp = dp * x + p
        p = p * x + c
    return p, dp


def _newton_in_bracket(coeffs, neg: float, pos: float) -> Optional[float]:
    """The root between neg and pos, where p(neg) < 0 < p(pos), by Newton steps
    that bisect instead whenever a step would leave the bracket or is not at
    most half the step before the last (rtsafe; Brent 1973).  Each new point
    narrows the bracket.  None when 100 steps do not settle to a step of 2 ulp."""
    x = 0.5 * (neg + pos)
    step = step_before = abs(pos - neg)
    p, dp = _horner(coeffs, x)
    for _ in range(100):
        if p == 0.0:
            return x
        if p < 0.0:
            neg = x
        else:
            pos = x
        newton = p / dp if dp else math.inf
        if abs(newton) <= 4.4e-16 * abs(x):
            return x - newton
        if abs(2.0 * newton) <= abs(step_before) and (
                neg < x - newton < pos or pos < x - newton < neg):
            step_before, step = step, newton
            x -= newton
        else:
            step_before, step = step, 0.5 * (pos - neg)
            x = neg + step
            if abs(step) <= 4.4e-16 * abs(x) or x == neg or x == pos:
                return x
        p, dp = _horner(coeffs, x)
    return None


def _isolated_roots(coeffs, count: int, center: float, reach: float,
                    stationary) -> Optional[List[float]]:
    """The count real roots, ascending, of the monic polynomial with trailing
    coefficients coeffs, whose real roots lie within reach of center: one in
    each gap between consecutive ends center - reach, the ascending stationary
    points, center + reach, across which p changes sign.  reach is widened by
    a relative 1e-9 against rounding.  None when p at an end is NaN or within
    oracle._eval_noise of 0 (a multiple root as far as floats can tell), a
    search does not settle, two roots meet or the sign changes are not count.
    """
    reach += 1e-9 * (reach + abs(center))
    ends = [center - reach, *stationary, center + reach]
    full = (1.0, *coeffs)
    values = [_horner(coeffs, e)[0] for e in ends]
    if not all(abs(v) > _eval_noise(full, e) for v, e in zip(values, ends)):
        return None
    roots: List[float] = []
    for lo, hi, p_lo, p_hi in zip(ends, ends[1:], values, values[1:]):
        if (p_lo < 0.0) == (p_hi < 0.0):
            continue
        x = _newton_in_bracket(coeffs, *((lo, hi) if p_lo < 0.0 else (hi, lo)))
        if x is None or (roots and x <= roots[-1]):
            return None
        roots.append(x)
    return roots if len(roots) == count else None


def _bracketed_roots(qf: Quartic, nature: Nature, tol: Tolerance) -> Optional[RootSet]:
    """The simple real roots of a float quartic with two or four of them, each
    isolated between stationary points and a root bound (_isolated_roots);
    None, for the caller to fall back to oracle.solve, when that fails.

    By Rolle each gap between consecutive stationary points holds at most one
    root.  With four real roots the paper's bound keeps every root within
    (sqrt(3)/4) sqrt(3a^2 - 8b) of -a/4; with two, Fujiwara's bound
    2 max(|a|, |b|^(1/2), |c|^(1/3), |d/2|^(1/4)) on |x| closes the outer ends.
    """
    a, b, c, d = qf.a, qf.b, qf.c, qf.d
    count = NATURE_STRUCTURE[nature][0]
    if count == 4:
        center = -a / 4.0
        reach = math.sqrt(3.0) / 4.0 * math.sqrt(max(0.0, _b_gap(a, b)))
    else:
        center = 0.0
        reach = 2.0 * max(abs(a), abs(b) ** 0.5, abs(c) ** (1.0 / 3.0), (abs(d) / 2.0) ** 0.25)
    roots = _isolated_roots((a, b, c, d), count, center, reach,
                            reversed(_stationary_points(qf, tol)))
    if roots is None:
        return None
    return RootSet(tuple((x, 1) for x in roots), (4 - count) // 2,
                   tuple(abs(qf(x)) for x in roots), 4)


def _pair_position(u, v, w) -> DoublePairPosition:
    """Where the double root u sits among the simple roots v, w."""
    if u < min(v, w):
        return DoublePairPosition.LOWEST_TWO
    if u > max(v, w):
        return DoublePairPosition.HIGHEST_TWO
    return DoublePairPosition.MIDDLE_TWO


def classify_quartic(q: Quartic, tol: Tolerance = DEFAULT_TOL) -> QuarticClassification:
    """Case label, root nature and closed-form roots where the discriminant vanishes.

    One tolerance snapshot drives every comparison of a call; with Fraction
    coefficients all decisions are exact.
    """
    case, comparisons, point, lam = _recorded(
        _cascade, _COMPARISONS, Quartic._values(q), _Coeffs, tol)
    nature, position = _CASE_TO_NATURE[case]
    closed = None
    if nature in _ZERO_DISC_NATURES:
        closed, computed_position = _closed_form_roots(nature, q, tol, c0_sign(comparisons))
        if computed_position is not None:
            position = computed_position
    return QuarticClassification(
        case=case,
        nature=nature,
        position=position,
        closed_form_roots=closed,
        comparisons=tuple(comparisons),
        eps=tol.eps,
        _source=(q, tol, point, lam),
    )


def _verdict_roots(cls: QuarticClassification) -> Tuple[Optional[RootSet], Optional[str]]:
    """The roots a verdict reports and where they came from: the closed form
    where the discriminant vanishes ("closed_form"), else, when the nature has
    real roots, the bracketed roots ("bracketed") or, when bracketing fails,
    the oracle's ("oracle"); (None, None) without real roots."""
    if cls.closed_form_roots is not None:
        return cls.closed_form_roots, "closed_form"
    if NATURE_STRUCTURE[cls.nature][0] == 0:
        return None, None
    q, tol, _, _ = cls._source
    qf = q.as_float()
    roots = _bracketed_roots(qf, cls.nature, tol)
    if roots is not None:
        return roots, "bracketed"
    return solve(qf), "oracle"


def _cascade(sign: Callable[[str], int]) -> ClassificationCase:
    """The 32-case decision tree, written once.

    ``sign(name)`` answers one named comparison with -1, 0 or 1; the names
    are the keys of _ON_COEFFS.  A path asks each comparison
    at most once, in the order classify_quartic audits them.  The batch
    classifier walks every path once to build its lookup table.
    """
    K = ClassificationCase
    s_b = sign("b_vs_3a2_over_8")
    s_c0 = sign("c_vs_C0")
    if s_b > 0:  # b > 3a^2/8
        if s_c0 != 0:
            return _pick(sign("d_vs_d0_via_disc"), K.I, K.II, K.III)
        return _pick(sign("d_vs_d_tilde"), K.IV, K.V, K.VI)
    if s_b == 0:  # b = 3a^2/8
        if s_c0 != 0:
            return _pick(sign("d_vs_d0_via_disc"), K.VII, K.VIII, K.IX)
        return _pick(sign("d_vs_a4_over_256"), K.X, K.XI, K.XII)
    # b < 3a^2/8
    s_band = sign("c_band")
    if s_c0 == 0:  # c = C0: symmetric stationary configuration
        s_dd = sign("d_vs_d_dagger")
        if s_dd >= 0:
            return K.XXV if s_dd > 0 else K.XXVI
        return _pick(sign("d_vs_d_tilde"), K.XXVII, K.XXVIII, K.XXIX)
    if s_band == 0:  # c = C1 or c = C2
        s_dt = sign("d_vs_d_tilde")
        if s_dt >= 0:
            return K.XX if s_dt > 0 else K.XXI
        return _pick(sign("d_vs_d_dagger"), K.XXII, K.XXIII, K.XXIV)
    if s_band > 0:  # c outside [C2, C1]
        return _pick(sign("d_vs_d0_via_disc"), K.XXX, K.XXXI, K.XXXII)
    # strictly inside (C2, C1), c != C0: three d-roots
    s_D = sign("d_vs_droots_via_disc")
    s_D1 = sign("disc_d_slope")
    s_D2 = sign("disc_d_curvature")
    if s_D > 0:
        return K.XIII if (s_D1 > 0 and s_D2 > 0) else K.XVII
    if s_D < 0:
        return K.XIX if (s_D1 > 0 and s_D2 < 0) else K.XV
    if s_D1 > 0:
        return K.XIV if s_D2 > 0 else K.XVIII
    if s_D1 < 0:
        return K.XVI
    return K.XVIII if s_D2 < 0 else K.XVI  # collapsed d-roots at tolerance: middle/outer fallback


def _pick(sign: int, above, equal, below) -> ClassificationCase:
    return above if sign > 0 else (equal if sign == 0 else below)


_CASE_TO_NATURE = {
    ClassificationCase.I: (Nature.NO_REAL, None),
    ClassificationCase.II: (Nature.TWO_EQUAL_REAL, None),
    ClassificationCase.III: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.IV: (Nature.NO_REAL, None),
    ClassificationCase.V: (Nature.TWO_EQUAL_REAL, None),
    ClassificationCase.VI: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.VII: (Nature.NO_REAL, None),
    ClassificationCase.VIII: (Nature.TWO_EQUAL_REAL, None),
    ClassificationCase.IX: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.X: (Nature.NO_REAL, None),
    ClassificationCase.XI: (Nature.QUADRUPLE_ROOT, None),
    ClassificationCase.XII: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.XIII: (Nature.NO_REAL, None),
    ClassificationCase.XIV: (Nature.TWO_EQUAL_REAL, None),
    ClassificationCase.XV: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.XVI: (Nature.FOUR_REAL_DOUBLE_PAIR, None),
    ClassificationCase.XVII: (Nature.FOUR_DISTINCT_REAL, None),
    ClassificationCase.XVIII: (Nature.FOUR_REAL_DOUBLE_PAIR, DoublePairPosition.MIDDLE_TWO),
    ClassificationCase.XIX: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.XX: (Nature.NO_REAL, None),
    ClassificationCase.XXI: (Nature.TWO_EQUAL_REAL, None),
    ClassificationCase.XXII: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.XXIII: (Nature.TRIPLE_PLUS_SINGLE, None),
    ClassificationCase.XXIV: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.XXV: (Nature.NO_REAL, None),
    ClassificationCase.XXVI: (Nature.TWO_DOUBLE_PAIRS, None),
    ClassificationCase.XXVII: (Nature.FOUR_DISTINCT_REAL, None),
    ClassificationCase.XXVIII: (Nature.FOUR_REAL_DOUBLE_PAIR, DoublePairPosition.MIDDLE_TWO),
    ClassificationCase.XXIX: (Nature.TWO_DISTINCT_REAL, None),
    ClassificationCase.XXX: (Nature.NO_REAL, None),
    ClassificationCase.XXXI: (Nature.TWO_EQUAL_REAL, None),
    ClassificationCase.XXXII: (Nature.TWO_DISTINCT_REAL, None),
}
