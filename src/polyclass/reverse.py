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


def admissible_b_range(a, nature: Nature) -> Admissible:
    """Admissible quadratic coefficients for the target nature: b = 3a^2/8 for a
    quadruple root, b < 3a^2/8 for the other four-real natures, and for the
    zero- and two-real natures the half-line b > 3a^2/8, a choice made here:
    every such nature is reached there, though not only there."""
    thr = 3.0 * float(a) ** 2 / 8.0
    if nature is Nature.QUADRUPLE_ROOT:
        return Admissible(points=(thr,))
    if NATURE_STRUCTURE[nature][0] == 4:
        return Admissible(intervals=(((None, thr)),))
    return Admissible(intervals=(((thr, None)),))


def admissible_c_range(a, b, nature: Nature,
                       position: Optional[DoublePairPosition] = None,
                       tol: Tolerance = DEFAULT_TOL) -> Admissible:
    """Admissible linear coefficients once a and b are fixed: the cells and breaks
    of the c-line, cut at C2 < C0 < C1 (at C0 alone where b >= 3a^2/8), whose
    d-lines reach the target (_c_cells)."""
    cells = _c_cells(nature, position)
    if cells is None:
        return Admissible(intervals=((None, None),))
    point, lam, sign = _sign_test(Quartic._values(Quartic(a, b, 0, 0)), _Coeffs, tol)
    s_b = sign(_b_terms(point))
    c0, c_hi, c_lo = _c_thresholds(point, lam, s_b)
    breaks = (c0,) if s_b >= 0 else (c_lo, c0, c_hi)
    return _admissible(cells[s_b], breaks, nature, position, "linear coefficient at this a, b")


def admissible_d_range(a, b, c, nature: Nature,
                       position: Optional[DoublePairPosition] = None,
                       tol: Tolerance = DEFAULT_TOL) -> Admissible:
    """Admissible free terms once a, b, c are fixed: the cells and breaks of the
    d-line, cut at the d-thresholds, where _cascade gives the target nature."""
    q0 = Quartic(a, b, c, 0)
    thr = quartic_thresholds(q0, tol)
    point, _, sign = _sign_test(Quartic._values(q0), _Coeffs, tol)
    s_b = sign(_b_terms(point))
    prefix = (s_b, sign(_c0_terms(point)), sign(_band_terms(point)) if s_b < 0 else None)
    # the breaks ascending; the order comes from the region, as float thresholds
    # can cross on a band edge
    roles = _d_roles(prefix)
    values = thr.d_roots[::-1] if roles[0] == "disc" else tuple(
        thr.d_dagger if role == "d_vs_d_dagger" else thr.d_tilde for role in roles)
    return _admissible(_d_cells(prefix, nature, position), values, nature, position,
                       "free term at this a, b, c")


def _admissible(cells, breaks, nature: Nature, position: Optional[DoublePairPosition],
                what: str) -> Admissible:
    """The Admissible set of cells (_pieces) on a line cut at breaks, ascending;
    Unachievable, naming what, when it is empty."""
    spans, points = cells
    if not spans and not points:
        pair = f" with the {position.value} pair" if position else ""
        raise Unachievable(f"no {what} gives {nature.value}{pair}")
    cut = (None, *breaks, None)
    return Admissible(tuple((cut[lo], cut[hi]) for lo, hi in spans),
                      tuple(cut[i] for i in points))


def _pieces(reached):
    """The reached spans and points of a line, top down, as index pairs and indices
    into (None, *breaks, None) with the breaks ascending.  ``reached`` holds one
    flag a slot, top down, cells and breaks alternating; reached cells merge
    across reached breaks, and any other reached break is a point."""
    n, spans, points = len(reached) // 2, [], []
    for k, hit in enumerate(reached):
        i = n - k // 2  # cell k (even) lies between cut[i] and cut[i + 1]; break k is cut[i]
        if not hit:
            continue
        if k % 2:
            if not (reached[k - 1] and reached[k + 1]):
                points.append(i)
        elif k and reached[k - 1] and reached[k - 2]:
            spans[-1] = (i, spans[-1][1])
        else:
            spans.append((i, i + 1))
    return tuple(spans), tuple(points)


#: the prefix signs (b_vs_3a2_over_8, c_vs_C0, c_band) of each cell and break of
#: the c-line, top down, by the sign of b; no band exists where b >= 3a^2/8
_C_SLOTS = {
    1: ((1, 1, None), (1, 0, None), (1, -1, None)),
    0: ((0, 1, None), (0, 0, None), (0, -1, None)),
    -1: ((-1, 1, 1), (-1, 1, 0), (-1, 1, -1), (-1, 0, -1), (-1, -1, -1), (-1, -1, 0), (-1, -1, 1)),
}


@lru_cache(maxsize=None)
def _c_cells(nature: Nature, position: Optional[DoublePairPosition]):
    """The cells and breaks of the c-line whose d-lines reach the nature (_d_cells),
    as _pieces gives them, by the sign of b; None where every c reaches it at
    every sign of b, as admissible_c_range then needs no sign test."""
    reached = {s_b: [_d_cells(prefix, nature, position) != ((), ()) for prefix in slots]
               for s_b, slots in _C_SLOTS.items()}
    if all(map(all, reached.values())):
        return None
    return {s_b: _pieces(flags) for s_b, flags in reached.items()}


def _d_roles(prefix):
    """The d-comparison that _cascade asks of each d-break, ascending, for the
    prefix signs of _C_SLOTS: the d-roots (``disc``), three strictly inside the
    band off C0, else one; d_tilde alone at C0 above 3a^2/8; a^4/256 at C0 on it;
    d_tilde < d_dagger at C0 below it; d_dagger < d_tilde on a band edge."""
    s_b, s_c0, s_band = prefix
    if s_c0 == 0:
        if s_b >= 0:
            return ("d_vs_a4_over_256",) if s_b == 0 else ("d_vs_d_tilde",)
        return "d_vs_d_tilde", "d_vs_d_dagger"
    if s_band == 0:
        return "d_vs_d_dagger", "d_vs_d_tilde"
    return ("disc",) * (3 if s_band == -1 else 1)


@lru_cache(maxsize=None)
def _d_cells(prefix, nature: Nature, position: Optional[DoublePairPosition]):
    """The cells and breaks of the d-line, as _pieces gives them, where _cascade
    gives the nature; prefix holds the signs of b_vs_3a2_over_8, c_vs_C0 and
    c_band.  A position filters FOUR_REAL_DOUBLE_PAIR only: the middle pair is
    cases xviii and xxviii, and case xvi's pair is lowest below C0, highest above.

    _cascade reads a canonical d-line with the breaks at r = 0, 2, 4, ..., the
    cells at the odd r and at -1.  The discriminant there is r (r - 2) (r - 4)
    (a single root of it is the break at 0, read only on [-1, 1]), its slope and
    curvature the derivatives; any other d-comparison is r minus its break.
    """
    signs = dict(zip(("b_vs_3a2_over_8", "c_vs_C0", "c_band"), prefix))
    roles = _d_roles(prefix)
    at = {role: 2 * i for i, role in enumerate(roles)}
    # case xvi, the double pair with no position of its own in _CASE_TO_NATURE
    xvi = DoublePairPosition.LOWEST_TWO if prefix[1] < 0 else DoublePairPosition.HIGHEST_TWO

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

    def reached(r: int) -> bool:
        got, pos = _CASE_TO_NATURE[_cascade(lambda name: sign(name, r))]
        return got is nature and (position is None or nature is not Nature.FOUR_REAL_DOUBLE_PAIR
                                  or (pos or xvi) is position)

    return _pieces([reached(r) for r in range(2 * len(roles) - 1, -2, -1)])


# --- sampling -------------------------------------------------------------------


def _pick(adm: Admissible, target: NatureTarget, rng: random.Random,
          pad: float = 0.05) -> float:
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
