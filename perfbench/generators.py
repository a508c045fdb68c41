"""Seeded inputs and ground truth that do not depend on polyclass.

Every quartic is built from its roots, so its nature is known by
construction; the program only ever receives the coefficients.  Roots are
dyadic (multiples of 1/16), which keeps every float coefficient an exact
binary number: a float quartic on a zero-discriminant stratum lies exactly
on it.  The batch workloads draw uniform coefficients instead and get their
truth from an exact integer evaluation of the classical discriminant
criteria (Rees 1922), with a square-free / Sturm fallback on the strata.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

#: nature names as polyclass spells them (``Nature.value``)
NATURES = (
    "no_real",
    "two_equal_real",
    "two_distinct_real",
    "four_distinct_real",
    "four_real_double_pair",
    "two_double_pairs",
    "triple_plus_single",
    "quadruple_root",
)
ZERO_DISC = frozenset(NATURES[i] for i in (1, 4, 5, 6, 7))
FOUR_REAL = frozenset(NATURES[3:])

#: sorted real multiplicities and conjugate-pair count of each nature
STRUCTURE = {
    ((), 2): "no_real",
    ((2,), 1): "two_equal_real",
    ((1, 1), 1): "two_distinct_real",
    ((1, 1, 1, 1), 0): "four_distinct_real",
    ((1, 1, 2), 0): "four_real_double_pair",
    ((2, 2), 0): "two_double_pairs",
    ((1, 3), 0): "triple_plus_single",
    ((4,), 0): "quadruple_root",
}

GRID = 16  # roots are multiples of 1/GRID
SPAN = 4  # real parts in [-SPAN, SPAN]
MIN_SEP = Fraction(1, 2)  # between distinct roots (and imaginary parts >= it)
BATCH_GRID_BITS = 16  # batch coefficients are multiples of 2**-16


# --- polynomial helpers (descending Fraction coefficients) ------------------------

def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def expand(linear: Sequence[Fraction], pairs: Sequence[Tuple[Fraction, Fraction]]):
    """Monic coefficients of prod (x - r) * prod (x^2 - 2u x + u^2 + v^2)."""
    p = [Fraction(1)]
    for r in linear:
        p = poly_mul(p, [Fraction(1), -r])
    for u, v in pairs:
        p = poly_mul(p, [Fraction(1), -2 * u, u * u + v * v])
    return p


def _strip(p: List[Fraction]) -> List[Fraction]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _rem(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    r = list(p)
    while len(r) >= len(q) and any(r):
        f = r[0] / q[0]
        for i in range(len(q)):
            r[i] -= f * q[i]
        r = r[1:]
    return _strip(r) if r else [Fraction(0)]


def _quot(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    r, out = list(p), []
    while len(r) >= len(q):
        f = r[0] / q[0]
        out.append(f)
        for i in range(len(q)):
            r[i] -= f * q[i]
        r = r[1:]
    return out


def _deriv(p: Sequence[Fraction]) -> List[Fraction]:
    n = len(p) - 1
    return [c * (n - i) for i, c in enumerate(p[:-1])] or [Fraction(0)]


def _gcd(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    a, b = _strip(list(p)), _strip(list(q))
    while any(b):
        a, b = b, _rem(a, b)
    return [c / a[0] for c in a]


def _sign_at_inf(p: Sequence[Fraction], negative: bool) -> int:
    s = (p[0] > 0) - (p[0] < 0)
    return -s if negative and (len(p) - 1) % 2 else s


def _distinct_real_roots(p: Sequence[Fraction]) -> int:
    """Sturm count of distinct real roots of a square-free polynomial."""
    chain = [list(p), _deriv(p)]
    while len(chain[-1]) > 1:
        r = _rem(chain[-2], chain[-1])
        if not any(r):
            break
        chain.append([-c for c in r])

    def variations(negative: bool) -> int:
        signs = [_sign_at_inf(q, negative) for q in chain if any(q)]
        signs = [s for s in signs if s]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    return variations(True) - variations(False)


def exact_structure(p: Sequence[Fraction]) -> Tuple[Tuple[int, ...], int]:
    """(sorted real multiplicities, conjugate-pair count) of a real polynomial.

    Yun's square-free factorization splits p into factors of each
    multiplicity; a Sturm chain counts the real roots of every factor.
    """
    p = [Fraction(c) for c in p]
    degree = len(p) - 1
    mults: List[int] = []
    b = _quot(p, _gcd(p, _deriv(p))) if degree > 1 else p
    c = _quot(p, b) if degree > 1 else [Fraction(1)]
    i = 1
    # Yun: b_i is the product of the factors of multiplicity >= i
    while len(b) > 1:
        y = _gcd(b, c)
        factor = _quot(b, y)
        if len(factor) > 1:
            mults.extend([i] * _distinct_real_roots(factor))
        b, c = y, _quot(c, y)
        i += 1
    real = sum(mults)
    return tuple(sorted(mults)), (degree - real) // 2


def exact_nature(coeffs: Sequence[Fraction]) -> str:
    """Nature of a monic quartic given its four trailing coefficients."""
    return STRUCTURE[exact_structure([Fraction(1), *coeffs])]


def rees_nature(a: int, b: int, c: int, d: int) -> str:
    """Nature of x^4 + a x^3 + b x^2 + c x + d for integer coefficients.

    Uses the discriminant together with P = 8b - 3a^2 and
    D = 64d - 16b^2 + 16a^2 b - 16ac - 3a^4 off the zero-discriminant set,
    and the exact square-free structure on it.
    """
    disc = (256 * d ** 3 - 192 * a * c * d ** 2 - 128 * b ** 2 * d ** 2
            + 144 * b * c ** 2 * d - 27 * c ** 4 + 144 * a ** 2 * b * d ** 2
            - 6 * a ** 2 * c ** 2 * d - 80 * a * b ** 2 * c * d
            + 18 * a * b * c ** 3 + 16 * b ** 4 * d - 4 * b ** 3 * c ** 2
            - 27 * a ** 4 * d ** 2 + 18 * a ** 3 * b * c * d
            - 4 * a ** 3 * c ** 3 - 4 * a ** 2 * b ** 3 * d
            + a ** 2 * b ** 2 * c ** 2)
    if disc < 0:
        return "two_distinct_real"
    if disc > 0:
        p = 8 * b - 3 * a * a
        dd = 64 * d - 16 * b * b + 16 * a * a * b - 16 * a * c - 3 * a ** 4
        return "four_distinct_real" if (p < 0 and dd < 0) else "no_real"
    return exact_nature([Fraction(v) for v in (a, b, c, d)])


# --- quartics from roots ------------------------------------------------------------

def _dyadic(rng: random.Random, lo: float, hi: float) -> Fraction:
    return Fraction(rng.randint(int(lo * GRID), int(hi * GRID)), GRID)


def _distinct(rng: random.Random, count: int) -> List[Fraction]:
    while True:
        xs = sorted(_dyadic(rng, -SPAN, SPAN) for _ in range(count))
        if all(y - x >= MIN_SEP for x, y in zip(xs, xs[1:])):
            return xs


def _pairs(rng: random.Random, count: int) -> List[Tuple[Fraction, Fraction]]:
    while True:
        out = [(_dyadic(rng, -SPAN, SPAN), _dyadic(rng, float(MIN_SEP), 3))
               for _ in range(count)]
        if count < 2 or (abs(out[0][0] - out[1][0]) >= MIN_SEP
                         or abs(out[0][1] - out[1][1]) >= MIN_SEP):
            return out


def roots_for(nature: str, rng: random.Random):
    """Real roots (with repeats) and conjugate pairs realising a nature."""
    if nature == "no_real":
        return [], _pairs(rng, 2)
    if nature == "two_equal_real":
        (u,) = _distinct(rng, 1)
        return [u, u], _pairs(rng, 1)
    if nature == "two_distinct_real":
        return _distinct(rng, 2), _pairs(rng, 1)
    if nature == "four_distinct_real":
        return _distinct(rng, 4), []
    if nature == "four_real_double_pair":
        u, v, w = _distinct(rng, 3)
        return rng.choice([[u, u, v, w], [u, v, v, w], [u, v, w, w]]), []
    if nature == "two_double_pairs":
        u, v = _distinct(rng, 2)
        return [u, u, v, v], []
    if nature == "triple_plus_single":
        u, v = _distinct(rng, 2)
        return rng.choice([[u, u, u, v], [u, v, v, v]]), []
    if nature == "quadruple_root":
        (u,) = _distinct(rng, 1)
        return [u] * 4, []
    raise ValueError(nature)


class QuarticCase:
    """One generated quartic: exact coefficients, float copy and its truth."""

    __slots__ = ("nature", "exact", "floats", "real_roots")

    def __init__(self, nature: str, exact: Sequence[Fraction], real_roots):
        self.nature = nature
        self.exact = tuple(exact)
        self.floats = tuple(float(x) for x in exact)
        self.real_roots = tuple(sorted(real_roots))

    @property
    def dyadic_exact(self) -> bool:
        """True when every float coefficient equals its exact value."""
        return all(Fraction(f) == x for f, x in zip(self.floats, self.exact))


def quartic_case(nature: str, rng: random.Random) -> QuarticCase:
    real, pairs = roots_for(nature, rng)
    return QuarticCase(nature, expand(real, pairs)[1:], real)


def balanced_natures(rng: random.Random, per_nature: int,
                     natures: Sequence[str] = NATURES) -> List[str]:
    """Every nature equally often, in seeded random order."""
    out = [n for n in natures for _ in range(per_nature)]
    rng.shuffle(out)
    return out


def rational_case(nature: str, rng: random.Random) -> QuarticCase:
    """A quartic with non-dyadic rational roots, for exact arithmetic."""
    real, pairs = roots_for(nature, rng)
    den = rng.choice((3, 5, 7, 9, 11))
    shift = Fraction(rng.randint(-den, den), den * den)
    real = [r + shift for r in real]
    pairs = [(u + shift, v) for u, v in pairs]
    return QuarticCase(nature, expand(real, pairs)[1:], real)


def weighted_scale(coeffs: Sequence, k: int):
    """(a, b, c, d) -> (l a, l^2 b, l^3 c, l^4 d) with l = 2^k; exact for floats."""
    lam = Fraction(2) ** k
    if isinstance(coeffs[0], float):
        return tuple(float(Fraction(x) * lam ** (i + 1)) for i, x in enumerate(coeffs))
    return tuple(x * lam ** (i + 1) for i, x in enumerate(coeffs))


# --- cubic and quintic cases ----------------------------------------------------------

def cubic_case(rng: random.Random, three_real: bool):
    """(float coefficients, kind, sorted real roots) of a dyadic cubic."""
    if three_real:
        real, pairs = _distinct(rng, 3), []
        kind = "three_distinct_real"
    else:
        real, pairs = _distinct(rng, 1), _pairs(rng, 1)
        kind = "one_real_plus_complex_pair"
    coeffs = expand(real, pairs)[1:]
    return tuple(float(x) for x in coeffs), kind, tuple(real)


def critical_point_quintic(rng: random.Random, real_critical: int):
    """(p, q, r, s) of x^5 + p x^4 + ... + s x with prescribed critical points.

    The free-term discriminant of the quintic vanishes at t = -g(x0) for each
    critical point x0 of g(x) = x^5 + p x^4 + q x^3 + r x^2 + s x, so it
    changes sign once per distinct real critical point.
    """
    if real_critical == 4:
        real, pairs = _distinct(rng, 4), []
    elif real_critical == 2:
        real, pairs = _distinct(rng, 2), _pairs(rng, 1)
    else:
        real, pairs = [], _pairs(rng, 2)
    _, e1, e2, e3, e4 = expand(real, pairs)  # g'(x) = 5 (x^4 + e1 x^3 + ...)
    p, q, r, s = 5 * e1 / 4, 5 * e2 / 3, 5 * e3 / 2, 5 * e4
    return (float(p), float(q), float(r), float(s)), real_critical


QUINTIC_SEP = 0.05  # conditioning of uniform_quintic (see there)


def uniform_quintic(rng: random.Random, conditioned: bool = True):
    """(p, q, r, s) uniform in [-3, 3] on a 2^-10 grid, and its sign-change count.

    The count is the number of distinct real critical points of
    g(x) = x^5 + p x^4 + q x^3 + r x^2 + s x (see critical_point_quintic),
    found by an exact Sturm count on g'.  When ``conditioned``, draws whose
    critical points, or critical values, lie within QUINTIC_SEP of each other
    (relative) are redrawn: there the free-term discriminant has a nearly
    double root and the float sign count is ill-posed.
    """
    while True:
        pqrs = [Fraction(rng.randint(-3 << 10, 3 << 10), 1 << 10) for _ in range(4)]
        p, q, r, s = pqrs
        g1 = [Fraction(5), 4 * p, 3 * q, 2 * r, s]
        if not conditioned or _separated(*(float(x) for x in pqrs)):
            break
    square_free = _quot(g1, _gcd(g1, _deriv(g1)))
    return tuple(float(x) for x in pqrs), _distinct_real_roots(square_free)


def _separated(p: float, q: float, r: float, s: float) -> bool:
    crit = np.roots([5.0, 4 * p, 3 * q, 2 * r, s])
    values = -(crit ** 5 + p * crit ** 4 + q * crit ** 3 + r * crit ** 2 + s * crit)
    for pts in (crit, values):
        scale = 1.0 + np.abs(pts).max()
        gaps = np.abs(pts[:, None] - pts[None, :]) + np.eye(len(pts)) * scale
        if gaps.min() < QUINTIC_SEP * scale:
            return False
    return True


# --- batch inputs ------------------------------------------------------------------

def uniform_batch(seed: int, n: int) -> np.ndarray:
    """Integer numerators of uniform coefficients in [-10, 10] on a 2^-16 grid."""
    rng = np.random.default_rng(seed)
    top = 10 << BATCH_GRID_BITS
    return rng.integers(-top, top, size=(n, 4), endpoint=True, dtype=np.int64)


def batch_truth(numerators: np.ndarray) -> List[str]:
    """Exact natures of x^4 + (A/s) x^3 + ... with s = 2^16.

    Substituting x = y / s gives the integer quartic
    y^4 + A y^3 + B s y^2 + C s^2 y + D s^3 with the same nature.
    """
    s = 1 << BATCH_GRID_BITS
    out: List[str] = []
    # a few thousand rows at a time, so that the Python ints of the truth
    # do not raise the peak memory that the benchmark reports
    for lo in range(0, len(numerators), 4096):
        out += [rees_nature(a, b * s, c * s * s, d * s ** 3)
                for a, b, c, d in numerators[lo:lo + 4096].tolist()]
    return out
