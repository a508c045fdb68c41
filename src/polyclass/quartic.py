"""Complete 32-case root classification of the quartic by coefficient thresholds.

The discriminant of x^4 + a x^3 + b x^2 + c x + d is cubic in the free term d.
Comparing b against 3a^2/8, c against the band [C2, C1] around C0, and d
against the roots of that cubic pins down the exact root nature.  Every
decision below is the sign of a polynomial in (a, b, c, d), so the whole
cascade is exact for Fraction inputs and tolerance-guarded for floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import List, Optional, Tuple

from .cubic import viete_values
from .numeric import DEFAULT_TOL, Number, Tolerance, is_exact
from .poly import (
    Cubic,
    Quartic,
    RootSet,
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

_ZERO_DISC_NATURES = {
    Nature.TWO_EQUAL_REAL,
    Nature.FOUR_REAL_DOUBLE_PAIR,
    Nature.TWO_DOUBLE_PAIRS,
    Nature.TRIPLE_PLUS_SINGLE,
    Nature.QUADRUPLE_ROOT,
}


@dataclass(frozen=True)
class Comparison:
    """One threshold decision: signed margin in tolerance units (value - threshold)."""

    name: str
    value: float
    margin_units: float
    fragile: bool


@dataclass(frozen=True)
class QuarticThresholds:
    """All free-term and linear-term thresholds of the classification.

    Fields that are rational functions of the coefficients (c_mid, abc,
    d_dagger, d_tilde and a triple d-root) stay Fractions for exact input;
    the rest are floats.
    """

    c_mid: Number  # C0
    c_hi: Optional[float]  # C1, real only when 3a^2 - 8b > 0
    c_lo: Optional[float]  # C2
    abc: Tuple[Number, Number, Number]  # monic cubic in d, disc/256
    d_roots: Tuple[Number, ...]  # (d1, d2, d3) descending, or (d0,)
    d_dagger: Optional[Number]  # double root of the d-cubic when its disc vanishes
    d_tilde: Optional[Number]  # simple root (the sign change) in the same situation


@dataclass(frozen=True)
class QuarticClassification:
    case: ClassificationCase
    nature: Nature
    position: Optional[DoublePairPosition]
    thresholds: QuarticThresholds
    closed_form_roots: Optional[RootSet]
    comparisons: Tuple[Comparison, ...]
    eps: float


@dataclass(frozen=True)
class BoundaryAudit:
    comparisons: Tuple[Comparison, ...]
    fragile: bool

    @property
    def flagged(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.comparisons if c.fragile)


def _lift(v):
    return Fraction(v) if is_exact(v) else float(v)


def _abc(q: Quartic):
    """Coefficients (A, B, C) of the monic cubic in d equal to disc/256."""
    a, b, c = _lift(q.a), _lift(q.b), _lift(q.c)
    A = (-27 * a ** 4 / 128 + 9 * a * a * b / 8 - 3 * a * c / 2 - b * b) / 2
    B = (9 * a ** 3 * b * c / 8 - a * a * b ** 3 / 4 - 3 * a * a * c * c / 8
         - 5 * a * b * b * c + b ** 4 + 9 * b * c * c) / 16
    C = (-a ** 3 * c ** 3 + a * a * b * b * c * c / 4 + 9 * a * b * c ** 3 / 2
         - b ** 3 * c * c - 27 * c ** 4 / 4) / 64
    return A, B, C


def _band_quadratic_terms(q: Quartic):
    # 27 * [4c^2 + a(a^2-4b)c - (b^2/3)(a^2 - 32b/9)]; same sign as (c-C1)(c-C2)
    a, b, c = q.a, q.b, q.c
    return (108 * c * c, 27 * a ** 3 * c, -108 * a * b * c, -9 * a * a * b * b, 32 * b ** 3)


def _c0_terms(q: Quartic):
    # 8 * (c - C0)
    return (8 * q.c, q.a ** 3, -4 * q.a * q.b)


def delta3_expanded(q: Quartic):
    """Discriminant of the d-cubic, straight from its closed form."""
    a, b, c = _lift(q.a), _lift(q.b), _lift(q.c)
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
    a, b, c = _lift(q.a), _lift(q.b), _lift(q.c)
    c0 = -a ** 3 / 8 + a * b / 2
    prod = (108 * c * c + 27 * a ** 3 * c - 108 * a * b * c
            - 9 * a * a * b * b + 32 * b ** 3) / 108
    return -1289945088 * (c - c0) ** 2 * prod ** 3


def _d_dagger_tilde(A, B, C):
    """Double and simple roots of the d-cubic when its discriminant vanishes."""
    denom = 2 * (A * A - 3 * B)
    if denom == 0:
        return None, None
    dag = (9 * C - A * B) / denom
    return dag, -A - 2 * dag


def quartic_thresholds(q: Quartic, tol: Tolerance = DEFAULT_TOL) -> QuarticThresholds:
    """Thresholds on c and d; rationally computable fields stay exact for exact input."""
    a, b = _lift(q.a), _lift(q.b)
    af, bf = float(a), float(b)
    A, B, C = _abc(q)
    c0 = -a ** 3 / 8 + a * b / 2
    s_b = tol.sign_terms((3 * q.a * q.a, -8 * q.b))
    c_hi = c_lo = None
    if s_b > 0:
        half = math.sqrt(3.0) / 72.0 * math.sqrt((3 * af * af - 8 * bf) ** 3)
        c_hi, c_lo = float(c0) + half, float(c0) - half
    s_c0 = tol.sign_terms(_c0_terms(q))
    s_band = tol.sign_terms(_band_quadratic_terms(q))
    abc = (A, B, C)
    if s_b == 0 and s_c0 == 0:
        d0 = a ** 4 / 256
        return QuarticThresholds(c0, c_hi, c_lo, abc, (d0,), None, d0)
    if s_c0 == 0 or (s_b > 0 and s_band == 0):
        # repeated root of the d-cubic
        dag, til = _d_dagger_tilde(A, B, C)
        return QuarticThresholds(c0, c_hi, c_lo, abc, (), dag, til)
    kind, payload = viete_values(Cubic(float(A), float(B), float(C)), tol)
    if kind == "three":
        d_roots = tuple(sorted(payload, reverse=True))
    else:
        d_roots = (payload,)
    return QuarticThresholds(c0, c_hi, c_lo, abc, d_roots, None, None)


def _d_vs_tilde_terms(A, B, C, d):
    # sign(d - d_tilde) scaled by A^2 - 3B > 0
    return (A * A * d, -3 * B * d, A ** 3, -4 * A * B, 9 * C)


def _d_vs_dagger_terms(A, B, C, d):
    # sign(d - d_dagger) scaled by 2(A^2 - 3B) > 0
    return (2 * A * A * d, -6 * B * d, -9 * C, A * B)


def _closed_form_roots(nature: Nature, q: Quartic, tol: Tolerance):
    """Exact root values for the zero-discriminant natures."""
    qf = q.as_float()
    a, b = qf.a, qf.b
    center = -a / 4.0
    if nature is Nature.QUADRUPLE_ROOT:
        return RootSet(((center, 4),), 0, (abs(qf(center)),), 4), None
    if nature is Nature.TWO_DOUBLE_PAIRS:
        s = math.sqrt(max(0.0, 3 * a * a - 8 * b))
        lo, hi = center - s / 4.0, center + s / 4.0
        rs = root_set_from_values([lo, lo, hi, hi], [abs(qf(lo))] * 2 + [abs(qf(hi))] * 2, 4)
        return rs, None
    if nature is Nature.TRIPLE_PLUS_SINGLE:
        radius = math.sqrt(3.0) / 12.0 * math.sqrt(max(0.0, 3 * a * a - 8 * b))
        on_high_side = tol.sign_terms(_c0_terms(q)) > 0  # c = C1 rather than C2
        triple = center + radius if on_high_side else center - radius
        single = center - 3 * radius if on_high_side else center + 3 * radius
        values = [triple] * 3 + [single]
        rs = root_set_from_values(values, [abs(qf(v)) for v in values], 4)
        return rs, None
    # double root at a stationary point, remaining roots by quadratic deflation
    deriv, _ = qf.derivative_monic()
    kind, payload = viete_values(deriv, tol)
    candidates = list(payload) if kind == "three" else [payload]
    u = min(candidates, key=lambda x: abs(qf(x)))
    if nature is Nature.TWO_EQUAL_REAL:
        return RootSet(((u, 2),), 1, (abs(qf(u)),), 4), None
    # FOUR_REAL_DOUBLE_PAIR: p4 = (x-u)^2 (x^2 + ex + f)
    e = a + 2.0 * u
    f = b + 2.0 * a * u + 3.0 * u * u
    s = math.sqrt(max(0.0, e * e - 4.0 * f))
    v, w = (-e - s) / 2.0, (-e + s) / 2.0
    values = [u, u, v, w]
    rs = root_set_from_values(values, [abs(qf(x)) for x in values], 4)
    if u < min(v, w):
        position = DoublePairPosition.LOWEST_TWO
    elif u > max(v, w):
        position = DoublePairPosition.HIGHEST_TWO
    else:
        position = DoublePairPosition.MIDDLE_TWO
    return rs, position


def classify_quartic(q: Quartic, tol: Tolerance = DEFAULT_TOL) -> QuarticClassification:
    """Case label, root nature and closed-form roots where the discriminant vanishes.

    One tolerance snapshot drives every comparison of a call; with Fraction
    coefficients all decisions are exact.
    """
    comparisons: List[Comparison] = []

    def record(name: str, terms) -> int:
        s, value, margin, fragile = tol.compare_terms(terms)
        comparisons.append(Comparison(name, value, margin, fragile))
        return s

    a = q.a
    # sign of b - 3a^2/8 (x8): >0 means b above the threshold
    s_b_rel = record("b_vs_3a2_over_8", (8 * q.b, -3 * a * a))
    s_c0 = record("c_vs_C0", _c0_terms(q))

    # the d-cubic coefficients A, B, C are built only in the branches that read them
    case: ClassificationCase
    if s_b_rel > 0:  # b > 3a^2/8
        if s_c0 != 0:
            s_D = record("d_vs_d0_via_disc", quartic_discriminant_terms(q))
            case = _pick(s_D, "i", "ii", "iii")
        else:
            A, B, C = _abc(q)
            s_dt = record("d_vs_d_tilde", _d_vs_tilde_terms(A, B, C, _lift(q.d)))
            case = _pick(s_dt, "iv", "v", "vi")
    elif s_b_rel == 0:  # b = 3a^2/8
        if s_c0 != 0:
            s_D = record("d_vs_d0_via_disc", quartic_discriminant_terms(q))
            case = _pick(s_D, "vii", "viii", "ix")
        else:
            s_d0 = record("d_vs_a4_over_256", (256 * q.d, -a ** 4))
            case = _pick(s_d0, "x", "xi", "xii")
    else:  # b < 3a^2/8
        if s_c0 == 0:  # c = C0: symmetric stationary configuration
            record("c_band", _band_quadratic_terms(q))
            A, B, C = _abc(q)
            d = _lift(q.d)
            s_dd = record("d_vs_d_dagger", _d_vs_dagger_terms(A, B, C, d))
            if s_dd > 0:
                case = ClassificationCase.XXV
            elif s_dd == 0:
                case = ClassificationCase.XXVI
            else:
                s_dt = record("d_vs_d_tilde", _d_vs_tilde_terms(A, B, C, d))
                case = _pick(s_dt, "xxvii", "xxviii", "xxix")
        else:
            s_band = record("c_band", _band_quadratic_terms(q))
            if s_band == 0:  # c = C1 or c = C2
                A, B, C = _abc(q)
                d = _lift(q.d)
                s_dt = record("d_vs_d_tilde", _d_vs_tilde_terms(A, B, C, d))
                if s_dt > 0:
                    case = ClassificationCase.XX
                elif s_dt == 0:
                    case = ClassificationCase.XXI
                else:
                    s_dd = record("d_vs_d_dagger", _d_vs_dagger_terms(A, B, C, d))
                    case = _pick(s_dd, "xxii", "xxiii", "xxiv")
            elif s_band < 0:  # strictly inside (C2, C1), c != C0: three d-roots
                s_D = record("d_vs_droots_via_disc", quartic_discriminant_terms(q))
                s_D1 = record("disc_d_slope", quartic_disc_d_derivative_terms(q))
                s_D2 = record("disc_d_curvature", quartic_disc_d_second_terms(q))
                if s_D > 0:
                    case = (ClassificationCase.XIII
                            if (s_D1 > 0 and s_D2 > 0) else ClassificationCase.XVII)
                elif s_D == 0:
                    if s_D1 > 0:
                        case = (ClassificationCase.XIV if s_D2 > 0
                                else ClassificationCase.XVIII)
                    elif s_D1 < 0:
                        case = ClassificationCase.XVI
                    else:  # collapsed d-roots at tolerance: middle/outer fallback
                        case = (ClassificationCase.XVIII if s_D2 < 0
                                else ClassificationCase.XVI)
                else:
                    case = (ClassificationCase.XIX
                            if (s_D1 > 0 and s_D2 < 0) else ClassificationCase.XV)
            else:  # c outside [C2, C1]
                s_D = record("d_vs_d0_via_disc", quartic_discriminant_terms(q))
                case = _pick(s_D, "xxx", "xxxi", "xxxii")

    nature, base_position = _CASE_TO_NATURE[case]
    thresholds = quartic_thresholds(q, tol)
    closed = None
    position = base_position
    if nature in _ZERO_DISC_NATURES:
        closed, computed_position = _closed_form_roots(nature, q, tol)
        if nature is Nature.FOUR_REAL_DOUBLE_PAIR and computed_position is not None:
            position = computed_position
    return QuarticClassification(
        case=case,
        nature=nature,
        position=position,
        thresholds=thresholds,
        closed_form_roots=closed,
        comparisons=tuple(comparisons),
        eps=tol.eps,
    )


def _pick(sign: int, above: str, equal: str, below: str):
    if sign > 0:
        return ClassificationCase[above.upper()]
    if sign == 0:
        return ClassificationCase[equal.upper()]
    return ClassificationCase[below.upper()]


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


def classification_boundary_audit(q: Quartic, tol: Tolerance = DEFAULT_TOL) -> BoundaryAudit:
    """Every threshold comparison of classify_quartic with its tolerance-unit margin."""
    cls = classify_quartic(q, tol)
    return BoundaryAudit(
        comparisons=cls.comparisons,
        fragile=any(c.fragile for c in cls.comparisons),
    )
