"""Reverse-engineering quartics: choose coefficients left-to-right for a target nature.

Given the leading coefficients that are already fixed, each function returns
the set of values for the next coefficient that keeps the target root nature
reachable.  ``synthesize`` walks the full chain and guarantees the round trip
through the classifier.

Boundary natures sit on measure-zero sets ({C0}, {d2}, ...).  In float mode
the exact threshold value is used and the tolerance absorbs rounding; in
exact mode the quartic is built from rational root data satisfying the fixed
prefix, so the classification is literally on the boundary.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .errors import RoundTripMismatch, Unachievable
from .numeric import DEFAULT_TOL, Number, Tolerance, _sign_test
from .poly import Quartic
from .quartic import (
    _CASE_TO_NATURE,
    NATURE_STRUCTURE,
    DoublePairPosition,
    Nature,
    _cascade,
    _Coeffs,
    _b_gap,
    _b_terms,
    _band_terms,
    _c0_terms,
    _c_mid,
    _c_thresholds,
    _pair_position,
    classify_quartic,
    quartic_thresholds,
)


@dataclass(frozen=True)
class Admissible:
    """Union of open intervals (None = unbounded side) and isolated points."""

    intervals: Tuple[Tuple[Optional[float], Optional[float]], ...] = ()
    points: Tuple[float, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.intervals and not self.points


@dataclass(frozen=True)
class NatureTarget:
    nature: Nature
    a: Number
    b: Optional[Number] = None
    c: Optional[Number] = None
    position: Optional[DoublePairPosition] = None
    strategy: str = "midpoint"  # or "random"
    seed: Optional[int] = None
    exact: bool = False
    window: float = 10.0

    def __post_init__(self):
        if self.strategy not in ("midpoint", "random"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0 < self.window < math.inf:
            raise ValueError(f"window must be finite and positive, got {self.window!r}")


def _b_threshold(a) -> float:
    return 3.0 * float(a) ** 2 / 8.0


def admissible_b_range(a, nature: Nature) -> Admissible:
    """Admissible quadratic coefficients for the target nature."""
    thr = _b_threshold(a)
    if nature is Nature.QUADRUPLE_ROOT:
        return Admissible(points=(thr,))
    if NATURE_STRUCTURE[nature][0] == 4:
        return Admissible(intervals=(((None, thr)),))
    # zero- and two-real natures: the half-line above keeps the free-term
    # discriminant single-rooted, which every such nature admits
    return Admissible(intervals=(((thr, None)),))


def admissible_c_range(a, b, nature: Nature,
                       position: Optional[DoublePairPosition] = None,
                       tol: Tolerance = DEFAULT_TOL) -> Admissible:
    """Admissible linear coefficients once a and b are fixed."""
    q0 = Quartic(a, b, 0, 0)
    if NATURE_STRUCTURE[nature][0] < 4 and nature is not Nature.TWO_EQUAL_REAL:
        return Admissible(intervals=((None, None),))
    point, lam, sign = _sign_test(Quartic._values(q0), _Coeffs, tol)
    s_b = sign(_b_terms(point))
    if nature is Nature.TWO_EQUAL_REAL:
        # no two-equal case has c = C0 unless b > 3a^2/8 (cases x-xii, xxv-xxix)
        if s_b > 0:
            return Admissible(intervals=((None, None),))
        c_mid = _c_mid(point.a, point.b, lam)
        return Admissible(intervals=((c_mid, None), (None, c_mid)))
    if nature is Nature.QUADRUPLE_ROOT:
        if s_b != 0:
            raise Unachievable("a quadruple root needs b = 3a^2/8 exactly")
        return Admissible(points=(float(a) ** 3 / 16.0,))
    if s_b >= 0:
        raise Unachievable(
            f"nature {nature.value} needs b < 3a^2/8 = {_b_threshold(q0.a):.6g}, got b = {float(q0.b):.6g}"
        )
    c_mid, c_hi, c_lo = _c_thresholds(point, lam, s_b)
    if nature is Nature.FOUR_DISTINCT_REAL:
        return Admissible(intervals=((c_lo, c_hi),))
    if nature is Nature.TWO_DOUBLE_PAIRS:
        return Admissible(points=(c_mid,))
    if nature is Nature.TRIPLE_PLUS_SINGLE:
        return Admissible(points=(c_hi, c_lo))
    if nature is Nature.FOUR_REAL_DOUBLE_PAIR:
        if position is DoublePairPosition.LOWEST_TWO:
            return Admissible(intervals=((c_lo, c_mid),))
        if position is DoublePairPosition.HIGHEST_TWO:
            return Admissible(intervals=((c_mid, c_hi),))
        return Admissible(intervals=((c_lo, c_hi),))
    raise Unachievable(f"unsupported nature {nature!r}")


def admissible_d_range(a, b, c, nature: Nature,
                       position: Optional[DoublePairPosition] = None,
                       tol: Tolerance = DEFAULT_TOL) -> Admissible:
    """Admissible free terms once a, b, c are fixed: the cells and breaks of the
    d-line, cut at the d-thresholds, where _cascade gives the target nature."""
    q0 = Quartic(a, b, c, 0)
    thr = quartic_thresholds(q0, tol)
    point, _, sign = _sign_test(Quartic._values(q0), _Coeffs, tol)
    s_b, s_c0 = sign(_b_terms(point)), sign(_c0_terms(point))
    s_band = sign(_band_terms(point)) if s_b < 0 else None  # the band exists below 3a^2/8
    # the breaks ascending, each named by the d-comparison that _cascade asks of it;
    # the order comes from the region, as float thresholds can cross on a band edge
    if s_c0 == 0 and s_b >= 0:
        values = (thr.d_tilde,)
        roles = ("d_vs_a4_over_256",) if s_b == 0 else ("d_vs_d_tilde",)
    elif s_c0 == 0:
        values, roles = (thr.d_tilde, thr.d_dagger), ("d_vs_d_tilde", "d_vs_d_dagger")
    elif s_band == 0:
        values, roles = (thr.d_dagger, thr.d_tilde), ("d_vs_d_dagger", "d_vs_d_tilde")
    else:
        values, roles = thr.d_roots[::-1], ("disc",) * len(thr.d_roots)
    spans, points = _d_cells((s_b, s_c0, s_band), roles, nature, position)
    if not spans and not points:
        pair = f" with the {position.value} pair" if position else ""
        raise Unachievable(f"no free term gives {nature.value}{pair} at this a, b, c")
    cut = (None, *values, None).__getitem__
    return Admissible(tuple(map(cut, spans)), tuple(map(cut, points)))


@lru_cache(maxsize=None)
def _d_cells(prefix, roles, nature: Nature, position: Optional[DoublePairPosition]):
    """The cells and breaks where _cascade gives the nature, top down, as slices
    and indices of (None, *breaks, None); prefix holds the signs of
    b_vs_3a2_over_8, c_vs_C0 and c_band.  A position filters FOUR_REAL_DOUBLE_PAIR
    only: the middle pair is cases xviii and xxviii, a lowest or highest one xvi.

    _cascade reads a canonical d-line with the breaks at r = 0, 2, 4, ..., the
    cells at the odd r and at -1.  The discriminant there is r (r - 2) (r - 4)
    (a single root of it is the break at 0, read only on [-1, 1]), its slope and
    curvature the derivatives; any other d-comparison is r minus its break.
    """
    signs = dict(zip(("b_vs_3a2_over_8", "c_vs_C0", "c_band"), prefix))
    at = {role: 2 * i for i, role in enumerate(roles)}

    def sign(name: str, r: int) -> int:
        if name in signs:
            return signs[name]
        if name in at:
            x = r - at[name]
        elif name == "disc_d_slope":
            x = 3 * r * r - 12 * r + 8
        elif name == "disc_d_curvature":
            x = 6 * r - 12
        else:  # the discriminant itself
            x = r * (r - 2) * (r - 4)
        return (x > 0) - (x < 0)

    spans, points, middle = [], [], position is DoublePairPosition.MIDDLE_TWO
    for r in range(2 * len(roles) - 1, -2, -1):
        got, pos = _CASE_TO_NATURE[_cascade(lambda name: sign(name, r))]
        if got is nature and (position is None or nature is not Nature.FOUR_REAL_DOUBLE_PAIR
                              or (pos is not None) == middle):
            if r % 2:
                spans.append(slice((r + 1) // 2, (r + 5) // 2))
            else:
                points.append(r // 2 + 1)
    return tuple(spans), tuple(points)


# --- sampling -------------------------------------------------------------------


def _pick(adm: Admissible, target: NatureTarget, rng: random.Random,
          pad: float = 0.05) -> float:
    if adm.empty:
        raise Unachievable("empty admissible set")
    w = target.window
    if adm.points:
        if target.strategy == "midpoint":
            return float(adm.points[0])
        return float(rng.choice(adm.points))
    lo, hi = adm.intervals[0]
    if lo is None and hi is None:
        lo, hi = -w / 2.0, w / 2.0
    elif lo is None:
        lo = hi - w
    elif hi is None:
        hi = lo + w
    if target.strategy == "midpoint":
        return (lo + hi) / 2.0
    # stay away from the open edges: boundary shells would reclassify
    margin = pad * (hi - lo)
    return rng.uniform(lo + margin, hi - margin)


def _snap(x: float) -> Fraction:
    """Nearby rational with a small denominator, for open-set exact picks."""
    return Fraction(x).limit_denominator(10 ** 6)


def synthesize(target: NatureTarget, tol: Tolerance = DEFAULT_TOL) -> Quartic:
    """Produce a quartic classifying exactly as the target nature.

    Random draws that land in a tolerance shell around a boundary are
    retried with wider edge padding (deterministic, seed-driven).  Raises
    Unachievable when the fixed prefix rules the nature out and
    RoundTripMismatch if the built quartic fails to classify back (an
    internal bug guard).
    """
    rng = random.Random(0 if target.seed is None else target.seed)
    attempts = 6 if target.strategy == "random" else 1
    mismatch = None
    for attempt in range(attempts):
        pad = min(0.45, 0.05 * 2 ** attempt)
        if target.exact:
            q = _synthesize_exact(target, rng, tol, pad)
        else:
            b, c = (None if v is None else float(v) for v in (target.b, target.c))
            q = _pick_chain(target, rng, tol, pad, float(target.a), b, c, float)
        cls = classify_quartic(q, tol)
        if cls.nature is not target.nature:
            mismatch = RoundTripMismatch(
                f"synthesized {q} classified as {cls.nature.value}, "
                f"wanted {target.nature.value}"
            )
            continue
        if (target.position is not None
                and target.nature is Nature.FOUR_REAL_DOUBLE_PAIR
                and cls.position is not target.position):
            mismatch = RoundTripMismatch(
                f"synthesized {q} has pair position {cls.position}, "
                f"wanted {target.position}"
            )
            continue
        return q
    raise mismatch


def _pick_chain(target: NatureTarget, rng: random.Random, tol: Tolerance, pad: float,
                a, b, c, snap) -> Quartic:
    """Quartic(a, b, c, d), picking the missing b and c, then d, left to right from the
    float admissible sets; ``snap`` turns each pick into a coefficient."""
    fa, nature, position = float(a), target.nature, target.position
    if b is None:
        b = snap(_pick(admissible_b_range(fa, nature), target, rng, pad))
    if c is None:
        c = snap(_pick(admissible_c_range(fa, float(b), nature, position, tol), target, rng, pad))
    d_adm = admissible_d_range(fa, float(b), float(c), nature, position, tol)
    return Quartic(a, b, c, snap(_pick(d_adm, target, rng, pad)))


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _rand_fraction(rng: random.Random, lo: float, hi: float) -> Fraction:
    return Fraction(rng.uniform(lo, hi)).limit_denominator(1000)


def _synthesize_exact(target: NatureTarget, rng: random.Random,
                      tol: Tolerance, pad: float = 0.05) -> Quartic:
    """Rational quartic exactly on the target stratum.

    Open natures pick rational interior points of the float admissible sets;
    boundary natures are assembled from rational root data compatible with
    the fixed prefix, because their threshold values are irrational for most
    prefixes.
    """
    a = Fraction(target.a)
    bq = None if target.b is None else Fraction(target.b)
    cq = None if target.c is None else Fraction(target.c)
    nature = target.nature

    if nature is Nature.QUADRUPLE_ROOT:
        b = 3 * a * a / 8
        if bq is not None and bq != b:
            raise Unachievable("a quadruple root needs b = 3a^2/8 exactly")
        c = a ** 3 / 16
        if cq is not None and cq != c:
            raise Unachievable("a quadruple root needs c = a^3/16 exactly")
        return Quartic(a, b, c, a ** 4 / 256)

    if nature is Nature.TWO_DOUBLE_PAIRS:
        if bq is None:
            b = 3 * a * a / 8 - _offset(target, rng)
        else:
            b = bq
            if _b_gap(a, b) <= 0:
                raise Unachievable("two double pairs need b < 3a^2/8")
        c0 = _c_mid(a, b)
        if cq is not None and cq != c0:
            raise Unachievable("two double pairs need c = C0 exactly")
        d = (b / 2 - a * a / 8) ** 2
        return Quartic(a, b, c0, d)

    if nature is Nature.TRIPLE_PLUS_SINGLE:
        if bq is None:
            t = _offset(target, rng)  # 3a^2 - 8b = 3 t^2 keeps C1, C2 rational
            b = 3 * (a * a - t * t) / 8
        else:
            b = bq
            t2 = _b_gap(a, b) / 3
            t = _rational_sqrt(t2)
            if t is None or t == 0:
                raise Unachievable(
                    "exact triple-root synthesis needs (3a^2-8b)/3 to be a rational square"
                )
        c0 = _c_mid(a, b)
        c_high, c_low = c0 + t ** 3 / 8, c0 - t ** 3 / 8
        if cq is None:
            c = c_high if target.strategy == "midpoint" or rng.random() < 0.5 else c_low
        elif cq in (c_high, c_low):
            c = cq
        else:
            raise Unachievable("exact triple-root synthesis needs c = C1 or c = C2 exactly")
        high = c == c_high
        triple = -a / 4 + (t / 4 if high else -t / 4)
        single = -a / 4 - (3 * t / 4 if high else -3 * t / 4)
        return Quartic(a, b, c, triple ** 3 * single)

    if nature is Nature.FOUR_REAL_DOUBLE_PAIR:
        return _exact_double_pair(target, a, bq, cq, rng)

    if nature is Nature.TWO_EQUAL_REAL:
        return _exact_two_equal(target, a, bq, cq, rng)

    # open natures: rational interior points of the float admissible sets
    return _pick_chain(target, rng, tol, pad, a, bq, cq, _snap)


def _offset(target: NatureTarget, rng: random.Random) -> Fraction:
    if target.strategy == "midpoint":
        return Fraction(2)
    return abs(_rand_fraction(rng, 0.25, target.window)) + Fraction(1, 4)


def _exact_double_pair(target: NatureTarget, a: Fraction, bq, cq,
                       rng: random.Random) -> Quartic:
    # (x-u)^2 (x-v)(x-w) with 2u + v + w = -a
    if cq is not None:
        raise Unachievable(
            "exact double-pair synthesis supports fixing a and b only; "
            "the final two coefficients are determined by rational root data"
        )
    position = target.position or DoublePairPosition.MIDDLE_TWO
    g1 = _offset(target, rng)
    g2 = _offset(target, rng) + Fraction(1, 3)
    if bq is None:
        base = Fraction(-1, 2) if target.strategy == "midpoint" else _rand_fraction(
            rng, -target.window / 2, target.window / 2)
        if position is DoublePairPosition.LOWEST_TWO:
            u, v, w = base, base + g1, base + g1 + g2
        elif position is DoublePairPosition.HIGHEST_TWO:
            u, v, w = base, base - g1, base - g1 - g2
        else:
            u, v, w = base, base - g1, base + g2
        shift = (-a - (2 * u + v + w)) / 4
        u, v, w = u + shift, v + shift, w + shift
    else:
        # v + w and v*w are forced; u must make (v-w)^2 a rational square
        for u, e, f in _forced_factors(a, bq, 1):
            root = _rational_sqrt(e * e - 4 * f)  # None below 0; 0 makes v = w
            if not root:
                continue
            v = (-e - root) / 2
            w = (-e + root) / 2
            if u == v or u == w:
                continue
            pos = _pair_position(u, v, w)
            if target.position is None or pos is target.position:
                break
        else:
            raise Unachievable(
                "no rational double-pair configuration matches the fixed a, b"
            )
    return _with_double_root(u, -(v + w), v * w)


def _forced_factors(a, b, first: int):
    """(u, e, f) such that (x-u)^2 (x^2 + e x + f) starts x^4 + a x^3 + b x^2,
    for u on the search grid k/8, -k/8 with k = first, first + 1, ..., 3999."""
    for k in range(first, 4000):
        for u in (Fraction(k, 8), Fraction(-k, 8)):
            yield u, a + 2 * u, b + 2 * a * u + 3 * u * u


def _with_double_root(u, e, f) -> Quartic:
    """The quartic (x-u)^2 (x^2 + e x + f)."""
    return Quartic(e - 2 * u, f - 2 * u * e + u * u, u * u * e - 2 * u * f, u * u * f)


def _exact_two_equal(target: NatureTarget, a: Fraction, bq, cq,
                     rng: random.Random) -> Quartic:
    # (x-u)^2 (x^2 + e x + f) with e = a + 2u and complex quadratic roots
    if cq is not None:
        raise Unachievable(
            "exact two-equal synthesis supports fixing a and b only"
        )
    if bq is None:
        u = Fraction(1, 2) if target.strategy == "midpoint" else _rand_fraction(
            rng, -target.window / 2, target.window / 2)
        e = a + 2 * u
        f = e * e / 4 + _offset(target, rng)
    else:
        # the quadratic factor must have complex roots
        for u, e, f in _forced_factors(a, bq, 0):
            if e * e < 4 * f:
                break
        else:
            raise Unachievable("no rational double root location for the fixed a, b")
    return _with_double_root(u, e, f)
