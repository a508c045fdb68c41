"""Free-term discriminant cascade for the quintic x^5 + p x^4 + q x^3 + r x^2 + s x + t.

The quintic discriminant is quartic in t with leading coefficient 3125; its
own discriminant factors through a chain of lower-degree discriminants down
to 8(2p^2-5q)^3.  This module exposes those cascade values and the count of
sign changes of the discriminant as t sweeps the reals.  No root
classification of the quintic itself is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DegenerateAtBoundary
from .numeric import DEFAULT_TOL, Tolerance
from .oracle import solve
from .poly import Quartic, _uniform
from .quartic import NATURE_STRUCTURE, classify_quartic


@dataclass(frozen=True)
class QuinticCascade:
    """Cascade quantities; delta5_coeffs are the t^4 .. t^0 coefficients."""

    delta5_coeffs: Tuple
    delta_t: object
    delta_tilde_s: object
    delta_tilde_r: object
    r0: object
    r1: Optional[float]
    r2: Optional[float]


def delta5_coefficients(p, q, r, s) -> Tuple:
    """Coefficients of the quintic discriminant as a quartic in the free term."""
    p, q, r, s = _uniform((p, q, r, s))
    c4 = 3125
    c3 = (256 * p ** 5 - 1600 * p ** 3 * q + 2000 * p * p * r + 2250 * p * q * q
          - 2500 * p * s - 3750 * q * r)
    c2 = (-192 * p ** 4 * q * s - 128 * p ** 4 * r * r + 144 * p ** 3 * q * q * r
          - 27 * p * p * q ** 4 + 160 * p ** 3 * r * s + 1020 * p * p * q * q * s
          + 560 * p * p * q * r * r + 108 * q ** 5 - 630 * p * q ** 3 * r
          - 50 * p * p * s * s - 2050 * p * q * r * s - 900 * p * r ** 3
          - 900 * q ** 3 * s + 825 * q * q * r * r + 2000 * q * s * s
          + 2250 * r * r * s)
    c1 = (144 * p ** 4 * r * s * s - 6 * p ** 3 * q * q * s * s
          - 80 * p ** 3 * q * r * r * s + 16 * p ** 3 * r ** 4
          + 18 * p * p * q ** 3 * r * s - 4 * p * p * q * q * r ** 3
          - 36 * p ** 3 * s ** 3 - 746 * p * p * q * r * s * s
          + 24 * p * p * r ** 3 * s + 24 * p * q ** 3 * s * s
          + 356 * p * q * q * r * r * s - 72 * p * q * r ** 4
          - 72 * q ** 4 * r * s + 16 * q ** 3 * r ** 3 + 160 * p * q * s ** 3
          + 1020 * p * r * r * s * s + 560 * q * q * r * s * s
          - 630 * q * r ** 3 * s + 108 * r ** 5 - 1600 * r * s ** 3)
    c0 = (-27 * p ** 4 * s ** 4 + 18 * p ** 3 * q * r * s ** 3
          - 4 * p ** 3 * r ** 3 * s * s - 4 * p * p * q ** 3 * s ** 3
          + p * p * q * q * r * r * s * s + 144 * p * p * q * s ** 4
          - 6 * p * p * r * r * s ** 3 - 80 * p * q * q * r * s ** 3
          + 18 * p * q * r ** 3 * s * s + 16 * q ** 4 * s ** 3
          - 4 * q ** 3 * r * r * s * s - 192 * p * r * s ** 4
          - 128 * q * q * s ** 4 + 144 * q * r * r * s ** 3
          - 27 * r ** 4 * s * s + 256 * s ** 5)
    return (c4, c3, c2, c1, c0)


def delta5_eval(coeffs: Tuple, t):
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * t + c
    return acc


def _squared_factor_terms(p, q, r, s) -> Tuple:
    return (
        8000 * s ** 3,
        -1408 * p ** 4 * s * s, 7040 * p * p * q * s * s, -9600 * p * r * s * s,
        -5200 * q * q * s * s,
        64 * p ** 8 * s, -640 * p ** 6 * q * s, 896 * p ** 5 * r * s,
        2064 * p ** 4 * q * q * s, -4192 * p ** 3 * q * r * s,
        -2392 * p * p * q ** 3 * s, 3120 * p * p * r * r * s,
        2000 * p * q * q * r * s, 1120 * q ** 4 * s, 1800 * q * r * r * s,
        -32 * r * q * p ** 7, 8 * p ** 6 * q ** 3, 16 * p ** 6 * r * r,
        288 * p ** 5 * q * q * r, -69 * p ** 4 * q ** 4, -568 * p ** 4 * q * r * r,
        -660 * p ** 3 * q ** 3 * r, 168 * p * p * q ** 5, 208 * p ** 3 * r ** 3,
        2234 * p * p * q * q * r * r, 80 * p * q ** 4 * r, -80 * q ** 6,
        -2340 * p * q * r ** 3, -440 * r * r * q ** 3, 675 * r ** 4,
    )


def _cubed_factor_terms(p, q, r, s) -> Tuple:
    return (
        -2000 * s ** 3,
        432 * p ** 4 * s * s, -2160 * p * p * q * s * s, 2400 * p * r * s * s,
        1800 * q * q * s * s,
        -432 * p ** 3 * q * r * s, 108 * p * p * q ** 3 * s, 120 * p * p * r * r * s,
        1800 * p * q * q * r * s, -405 * q ** 4 * s, -2700 * q * r * r * s,
        128 * p ** 3 * r ** 3, -36 * p * p * q * q * r * r, -540 * p * q * r ** 3,
        135 * r * r * q ** 3, 675 * r ** 4,
    )


def delta_t_value(p, q, r, s):
    """Discriminant of the t-quartic: -256 * [..]^2 * [..]^3 as printed."""
    p, q, r, s = _uniform((p, q, r, s))
    sq = sum(_squared_factor_terms(p, q, r, s))
    cu = sum(_cubed_factor_terms(p, q, r, s))
    return -256 * sq * sq * cu ** 3


def delta_tilde_s_value(p, q, r):
    p, q, r = _uniform((p, q, r))
    return (-5038848 * (4 * p ** 3 - 15 * p * q + 25 * r) ** 2
            * (8 * p ** 3 * r - 3 * p * p * q * q - 30 * p * q * r
               + 10 * q ** 3 + 25 * r * r) ** 3)


def delta_tilde_s_factored(p, q, r):
    """Same value as (r-R0)^2 [(r-R2)(r-R1)]^3 up to the consistent constant.

    The squared factor is 625 (r-R0)^2 and the quadratic one 25 (r-R1)(r-R2),
    so the factored constant is 5038848 * 625 * 25^3 = 5038848 * 9765625.
    The quadratic is evaluated through its coefficients, which keeps this
    exact for rational input and defined when R1, R2 are complex.
    """
    p, q, r = _uniform((p, q, r))
    r0 = _r0(p, q)
    prod = r * r - 2 * r0 * r + r0 * r0 - 2 * _r_gap(p, q) ** 3 / 625
    return -5038848 * 9765625 * (r - r0) ** 2 * prod ** 3


def delta_tilde_r_value(p, q):
    p, q = _uniform((p, q))
    return 8 * _r_gap(p, q) ** 3


def _r0(p, q):
    """R0 = -4p^3/25 + 3pq/5, the double root in r of the delta_tilde_s factor."""
    return -4 * p ** 3 / 25 + 3 * p * q / 5


def _r_gap(p, q):
    """2p^2 - 5q; R1, R2 = R0 +- (sqrt(2)/25) (2p^2 - 5q)^(3/2)."""
    return 2 * p * p - 5 * q


def quintic_cascade(p, q, r, s) -> QuinticCascade:
    """All cascade values for the quintic with unspecified free term.

    R0 is exact for rational input; R1 and R2 are floats formed from it.
    """
    p, q, r, s = _uniform((p, q, r, s))
    coeffs = delta5_coefficients(p, q, r, s)
    r0, gap = _r0(p, q), float(_r_gap(p, q))
    r1 = r2 = None
    if gap > 0.0:
        half = math.sqrt(2.0) / 25.0 * math.sqrt(gap ** 3)
        r1, r2 = float(r0) + half, float(r0) - half
    return QuinticCascade(
        delta5_coeffs=coeffs,
        delta_t=delta_t_value(p, q, r, s),
        delta_tilde_s=delta_tilde_s_value(p, q, r),
        delta_tilde_r=delta_tilde_r_value(p, q),
        r0=r0,
        r1=r1,
        r2=r2,
    )


@dataclass(frozen=True)
class SignChangeSummary:
    count: int
    t_roots: Tuple[float, ...]


def delta5_sign_changes(p, q, r, s, tol: Tolerance = DEFAULT_TOL) -> SignChangeSummary:
    """Sign changes of the quintic discriminant as the free term sweeps the reals.

    The discriminant is a positive-leading quartic in t, so the count equals
    the number of its real roots (0, 2 or 4 away from boundaries) and each
    root marks a real tangency of the quintic.  A vanishing discriminant of
    the t-quartic itself (either printed factor within tolerance of zero)
    means repeated transition points; that raises DegenerateAtBoundary
    instead of guessing.
    """
    pf, qf, rf, sf = float(p), float(q), float(r), float(s)
    sq_sign = tol.sign_terms(_squared_factor_terms(pf, qf, rf, sf))
    cu_sign = tol.sign_terms(_cubed_factor_terms(pf, qf, rf, sf))
    if sq_sign == 0 or cu_sign == 0:
        raise DegenerateAtBoundary(
            "discriminant of the t-quartic vanishes within tolerance"
        )
    coeffs = delta5_coefficients(pf, qf, rf, sf)
    monic = Quartic(*(float(c) / 3125.0 for c in coeffs[1:]))
    cls = classify_quartic(monic, tol)
    expected_count = NATURE_STRUCTURE[cls.nature][0]
    roots = solve(monic)
    if roots.real_count != expected_count:
        raise DegenerateAtBoundary(
            f"t-root structure disagrees near a boundary: classifier {expected_count}, "
            f"oracle {roots.real_count}"
        )
    return SignChangeSummary(count=expected_count, t_roots=roots.values)
