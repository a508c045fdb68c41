"""Tetrahedron-derived landmarks, universal root bounds and root localization.

A quartic with four real roots projects a regular tetrahedron onto the x-axis:
insphere radius R = (sqrt(3)/12) sqrt(3a^2-8b) centered at -a/4, edge
L = sqrt(24) R, height h = 4R.  The span of the four roots lies in [h, L] and
no root leaves [-a/4 - 3R, -a/4 + 3R].
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

from .errors import NoTetrahedron, NotFourReal
from .poly import Quartic
from .quartic import NATURE_STRUCTURE, Nature, QuarticClassification, _b_gap, c0_sign

SQRT3 = math.sqrt(3.0)


class TetrahedronData(NamedTuple):
    """All landmark abscissae generated by (a, b) for 3a^2 - 8b > 0.

    rho: inflection points (+-R around the center); phi: the lone stationary
    point when c sits at a band edge (-+2R); sigma: stationary points of the
    symmetric configuration (+-sqrt(3) R and the center); lambda: universal
    root bounds (-+3R).
    """

    center_x: float
    insphere_radius: float
    edge: float
    triangle_side: float
    height: float
    rho1: float
    rho2: float
    phi1: float
    phi2: float
    sigma1: float
    sigma2: float
    sigma3: float
    lambda_min: float
    lambda_max: float


class LocalizationResult(NamedTuple):
    """Closed intervals containing the sorted roots x4 <= x3 <= x2 <= x1."""

    branch: str  # "low_c" (C2 <= c <= C0) or "high_c" (C0 <= c <= C1)
    tie_at_c0: bool
    intervals: Tuple[Tuple[float, float], ...]  # ascending root order


def tetrahedron_data(a: float, b: float) -> TetrahedronData:
    a, b = float(a), float(b)
    gap = _b_gap(a, b)
    if gap <= 0.0:
        raise NoTetrahedron(f"3a^2 - 8b = {gap:.6g} <= 0: no tetrahedron")
    radius = SQRT3 / 12.0 * math.sqrt(gap)
    center = -a / 4.0
    return TetrahedronData(
        center_x=center,
        insphere_radius=radius,
        edge=math.sqrt(24.0) * radius,
        triangle_side=math.sqrt(12.0) * radius,
        height=4.0 * radius,
        rho1=center + radius,
        rho2=center - radius,
        phi1=center - 2.0 * radius,
        phi2=center + 2.0 * radius,
        sigma1=center + SQRT3 * radius,
        sigma2=center,
        sigma3=center - SQRT3 * radius,
        lambda_min=center - 3.0 * radius,
        lambda_max=center + 3.0 * radius,
    )


def _gap(a: float, b: float) -> float:
    a, b = float(a), float(b)
    gap = _b_gap(a, b)
    if gap < 0.0:
        raise NoTetrahedron(f"3a^2 - 8b = {gap:.6g} < 0: no four real roots possible")
    return gap


def root_bounds(a: float, b: float) -> Tuple[float, float]:
    """(lambda_min, lambda_max): no real root of a 4-real-root quartic escapes them.

    The degenerate boundary 3a^2 = 8b is allowed: both bounds collapse onto
    the quadruple root -a/4.
    """
    radius = SQRT3 / 12.0 * math.sqrt(_gap(a, b))
    center = -float(a) / 4.0
    return center - 3.0 * radius, center + 3.0 * radius


def span_bounds(a: float, b: float) -> Tuple[float, float]:
    """(h, L): min and max possible distance between extreme roots."""
    radius = SQRT3 / 12.0 * math.sqrt(_gap(a, b))
    return 4.0 * radius, math.sqrt(24.0) * radius


def localize_roots(q: Quartic, cls: QuarticClassification) -> LocalizationResult:
    """Landmark intervals around the four sorted real roots.

    Low branch (C2 <= c <= C0): x4 in [lam_min, rho2], x3 in [sigma3, -a/4],
    x2 in [rho2, phi2], x1 in [sigma1, lam_max].  High branch mirrors it.
    Each interval may contain up to two roots; they are containment boxes,
    not isolation intervals.  The branch is the c-vs-C0 decision ``cls``
    recorded, so it never contradicts the classification.
    """
    if NATURE_STRUCTURE[cls.nature][0] != 4:
        raise NotFourReal(f"nature {cls.nature.value} does not have four real roots")
    if cls.nature is Nature.QUADRUPLE_ROOT:
        raise NoTetrahedron("quadruple root: the tetrahedron degenerates to a point")
    t = tetrahedron_data(float(q.a), float(q.b))
    s_c0 = c0_sign(cls.comparisons)
    tie = s_c0 == 0
    if s_c0 <= 0:
        intervals = (
            (t.lambda_min, t.rho2),
            (t.sigma3, t.center_x),
            (t.rho2, t.phi2),
            (t.sigma1, t.lambda_max),
        )
        return LocalizationResult("low_c", tie, intervals)
    intervals = (
        (t.lambda_min, t.sigma3),
        (t.phi1, t.rho1),
        (t.center_x, t.sigma1),
        (t.rho1, t.lambda_max),
    )
    return LocalizationResult("high_c", tie, intervals)
