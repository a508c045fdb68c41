"""Deterministic SVG schematics: vertex triangle, circles and root markers.

Fixed 800x600 viewBox, isotropic scaling, fixed element order and fixed
float formatting, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .cubic import TriangleData, triangle_data
from .errors import NoTriangle
from .geometry import tetrahedron_data
from .numeric import DEFAULT_TOL, Tolerance
from .poly import Cubic, Quartic
from .quartic import _verdict_roots, classify_quartic

WIDTH, HEIGHT = 800, 600


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


class _Canvas:
    """World-to-screen mapping plus an ordered element buffer."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        pad_x = 0.08 * (x_hi - x_lo) or 1.0
        pad_y = 0.08 * (y_hi - y_lo) or 1.0
        x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
        y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
        self.scale = min(WIDTH / (x_hi - x_lo), HEIGHT / (y_hi - y_lo))
        self.cx = (x_lo + x_hi) / 2.0
        self.cy = (y_lo + y_hi) / 2.0
        self.parts: List[str] = []

    def x(self, wx: float) -> float:
        return WIDTH / 2.0 + (wx - self.cx) * self.scale

    def y(self, wy: float) -> float:
        return HEIGHT / 2.0 - (wy - self.cy) * self.scale

    def line(self, x1, y1, x2, y2, stroke, width="1", dash: Optional[str] = None):
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(self.x(x1))}" y1="{_fmt(self.y(y1))}" '
            f'x2="{_fmt(self.x(x2))}" y2="{_fmt(self.y(y2))}" '
            f'stroke="{stroke}" stroke-width="{width}"{extra}/>'
        )

    def circle(self, wx, wy, w_radius, stroke, fill="none"):
        self.parts.append(
            f'<circle cx="{_fmt(self.x(wx))}" cy="{_fmt(self.y(wy))}" '
            f'r="{_fmt(w_radius * self.scale)}" stroke="{stroke}" fill="{fill}"/>'
        )

    def dot(self, wx, wy, px_radius, fill):
        self.parts.append(
            f'<circle cx="{_fmt(self.x(wx))}" cy="{_fmt(self.y(wy))}" '
            f'r="{px_radius}" fill="{fill}"/>'
        )

    def polygon(self, points: Sequence[Tuple[float, float]], stroke, fill="none"):
        coords = " ".join(f"{_fmt(self.x(px))},{_fmt(self.y(py))}" for px, py in points)
        self.parts.append(
            f'<polygon points="{coords}" stroke="{stroke}" fill="{fill}" stroke-width="1.5"/>'
        )

    def tick(self, wx, label, color, half_px=8.0):
        sx = _fmt(self.x(wx))
        sy = self.y(0.0)
        self.parts.append(
            f'<line x1="{sx}" y1="{_fmt(sy - half_px)}" x2="{sx}" y2="{_fmt(sy + half_px)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        self.parts.append(
            f'<text x="{sx}" y="{_fmt(sy + half_px + 12.0)}" font-size="10" '
            f'text-anchor="middle" fill="{color}">{label}</text>'
        )

    def document(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n{body}\n</svg>\n'
        )


def _triangle_elements(canvas: _Canvas, tri: TriangleData):
    canvas.circle(tri.centroid_x, 0.0, 2.0 * tri.incircle_radius, "#bbbbbb")
    canvas.circle(tri.centroid_x, 0.0, tri.incircle_radius, "#888888")
    canvas.polygon(tri.vertices, "#1f6fb2")
    canvas.dot(tri.centroid_x, 0.0, 3.0, "#d04040")
    for vx, vy in tri.vertices:
        canvas.line(vx, vy, vx, 0.0, "#9fc5e8", dash="3,3")
        canvas.dot(vx, vy, 3.0, "#1f6fb2")


def render_cubic(cu: Cubic, tol: Tolerance = DEFAULT_TOL) -> str:
    """Triangle, incircle/circumcircle, centroid and root projections."""
    tri = triangle_data(cu, tol)  # raises NoTriangle when absent
    reach = 2.0 * tri.incircle_radius
    xs = [v[0] for v in tri.vertices] + [tri.centroid_x - reach, tri.centroid_x + reach]
    canvas = _Canvas(min(xs), max(xs), -reach, reach)
    canvas.line(min(xs), 0.0, max(xs), 0.0, "#333333")
    _triangle_elements(canvas, tri)
    for vx, _ in tri.vertices:
        canvas.tick(vx, f"x={_fmt(vx)}", "#1f6fb2")
    return canvas.document()


def render_quartic(q: Quartic, tol: Tolerance = DEFAULT_TOL) -> str:
    """Derivative triangle plus tetrahedron projections and landmark markers."""
    tet = tetrahedron_data(float(q.a), float(q.b))  # raises NoTetrahedron
    rs = _verdict_roots(classify_quartic(q, tol))[0]
    roots = list(rs.expanded()) if rs is not None else []
    deriv, _ = q.as_float().derivative_monic()
    try:
        tri = triangle_data(deriv, tol)
    except NoTriangle:
        tri = None  # fewer than three stationary points: markers only
    reach = max(2.0 * tet.insphere_radius, tet.edge / 2.0)
    xs = [tet.lambda_min, tet.lambda_max] + roots
    canvas = _Canvas(min(xs), max(xs), -reach, reach)
    canvas.line(min(xs), 0.0, max(xs), 0.0, "#333333")
    if tri is not None:
        _triangle_elements(canvas, tri)
    markers = [
        ("lam_min", tet.lambda_min, "#b26f1f"),
        ("rho2", tet.rho2, "#7a7a1f"),
        ("phi1", tet.phi1, "#1f7a5a"),
        ("sig3", tet.sigma3, "#5a1f7a"),
        ("-a/4", tet.center_x, "#d04040"),
        ("sig1", tet.sigma1, "#5a1f7a"),
        ("phi2", tet.phi2, "#1f7a5a"),
        ("rho1", tet.rho1, "#7a7a1f"),
        ("lam_max", tet.lambda_max, "#b26f1f"),
    ]
    for label, wx, color in markers:
        canvas.tick(wx, label, color, half_px=6.0)
    for i, root in enumerate(sorted(roots)):
        canvas.tick(root, f"x{4 - i}", "#1f6fb2", half_px=10.0)
    return canvas.document()
