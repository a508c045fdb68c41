"""Independent numeric ground truth for degrees 2 through 5.

A deterministic Aberth-style simultaneous iteration finds all complex roots;
multiplicities come from clustering (never from deflation), followed by a few
multiplicity-aware Newton steps on each cluster centroid.  Everything is pure
and reproducible: same input, same bits out.
"""

from __future__ import annotations

import cmath
import math
from typing import List, Sequence, Tuple

from .errors import NoConvergence, PolyclassError
from .numeric import sort_key_complex
from .poly import Cubic, Quartic, Quintic, RootSet

MACHEPS = 2.220446049250313e-16

#: the iteration's settings, read at call time
MAX_ITERATIONS = 200
CONVERGENCE_TOL = 1e-13
CLUSTER_TOL = 1e-6  # merge distance, relative to 1 + max|z|
POLISH_STEPS = 3


def monic_coefficients(poly) -> List[float]:
    """Descending float coefficients, normalized to a leading 1."""
    if isinstance(poly, (Cubic, Quartic, Quintic)):
        coeffs = [float(x) for x in poly.coefficients()]
    else:
        coeffs = [float(x) for x in poly]
        if not coeffs or coeffs[0] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        coeffs = [c / coeffs[0] for c in coeffs]
    if any(not math.isfinite(c) for c in coeffs):
        raise ValueError("coefficients must be finite")
    degree = len(coeffs) - 1
    if degree not in (2, 3, 4, 5):
        raise ValueError(f"oracle supports degrees 2..5, got {degree}")
    return coeffs


def _horner2(coeffs: Sequence[float], z: complex) -> Tuple[complex, complex]:
    p = complex(coeffs[0])
    dp = 0j
    for c in coeffs[1:]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _eval_noise(coeffs: Sequence[float], z: complex) -> float:
    az = abs(z)
    bound = 0.0
    for c in coeffs:
        bound = bound * az + abs(c)
    return 4.0 * len(coeffs) * MACHEPS * bound


def _quadratic_roots(b: float, c: float) -> List[complex]:
    """Roots of x^2 + b x + c, with the numerically stable split."""
    disc = complex(b * b - 4.0 * c)
    sq = cmath.sqrt(disc)
    if b.real >= 0:
        qq = -(b + sq) / 2.0
    else:
        qq = -(b - sq) / 2.0
    if qq == 0:
        return [0j, 0j]
    return sorted([qq, complex(c) / qq], key=sort_key_complex)


def _aberth(coeffs: Sequence[float]) -> List[complex]:
    n = len(coeffs) - 1
    if n == 2:
        return _quadratic_roots(coeffs[1], coeffs[2])
    radius = 1.0 + max(abs(c) for c in coeffs[1:])
    # fixed non-symmetric placement: breaks conjugate-symmetry stalls
    z = [radius * cmath.exp(1j * (2.0 * math.pi * k / n + 0.4)) for k in range(n)]
    # _horner2 and _eval_noise inlined, with their order of operations
    lead, rest = complex(coeffs[0]), coeffs[1:]
    abs_coeffs = [abs(c) for c in coeffs]
    noise_factor = 4.0 * len(coeffs) * MACHEPS
    trace: List[float] = []
    for _ in range(MAX_ITERATIONS):
        max_step = 0.0
        for k in range(n):
            zk = z[k]
            p, dp = lead, 0j
            for c in rest:
                dp = dp * zk + p
                p = p * zk + c
            azk, bound = abs(zk), 0.0
            for ac in abs_coeffs:
                bound = bound * azk + ac
            if abs(p) <= noise_factor * bound:
                continue
            if dp == 0:
                z[k] = zk + 1e-8 * (1.0 + azk)
                max_step = math.inf
                continue
            ratio = p / dp
            ssum = 0j
            for j in range(n):
                if j == k:
                    continue
                dz = zk - z[j]
                if dz == 0:
                    dz = 1e-12 * (1.0 + azk)
                ssum += 1.0 / dz
            denom = 1.0 - ratio * ssum
            w = ratio if denom == 0 else ratio / denom
            z[k] = zk - w
            max_step = max(max_step, abs(w) / (1.0 + abs(z[k])))
        trace.append(max_step)
        if max_step < CONVERGENCE_TOL:
            break
    else:
        residual_ok = all(
            abs(_horner2(coeffs, zk)[0]) <= 16.0 * _eval_noise(coeffs, zk) for zk in z
        )
        if not residual_ok:
            raise NoConvergence(
                f"simultaneous iteration did not converge in {MAX_ITERATIONS} iterations",
                trace=trace,
            )
    return sorted(z, key=sort_key_complex)


def _centroid(points: Sequence[complex]) -> complex:
    return sum(points) / len(points)


def _derivative_coeffs(coeffs: Sequence[float]) -> List[List[float]]:
    """coeffs of p, p', p'', ... down to the constant, descending order each."""
    out = [list(coeffs)]
    while len(out[-1]) > 1:
        prev = out[-1]
        deg = len(prev) - 1
        out.append([prev[i] * (deg - i) for i in range(deg)])
    return out


def _diameter(points: Sequence[complex]) -> float:
    return max((abs(x - y) for x in points for y in points), default=0.0)


def _multiple_root_scatter(derivs: List[List[float]], z: complex, m: int) -> float:
    """Radius within which m approximations of a true m-fold root at z spread.

    Near an m-fold root the evaluation noise hides p up to the distance where
    some Taylor term p^(k)(z)/k! dz^k (k >= m) emerges from the noise floor,
    so the resolvable radius is the smallest such k-th root.
    """
    noise = _eval_noise(derivs[0], z)
    n = len(derivs) - 1
    radius = math.inf
    for k in range(m, n + 1):
        lead = abs(_horner2(derivs[k], z)[0]) / math.factorial(k)
        if lead > 0.0:
            radius = min(radius, (noise / lead) ** (1.0 / k))
    return radius


def _cluster_ok(points: Sequence[complex], derivs: List[List[float]], scale: float) -> bool:
    m = len(points)
    if m == 1:
        return True
    diam = _diameter(points)
    if diam <= CLUSTER_TOL * scale:
        return True
    return diam <= 8.0 * _multiple_root_scatter(derivs, _centroid(points), m)


def _partitions(n: int, apart):
    """Set partitions of range(n) in restricted-growth order, skipping each one
    with a block that holds a pair i, j with apart[i][j].  Blocks only grow down
    the recursion, so the branch where i would join a block holding such a j is
    cut whole, and the partitions left keep their order."""
    def rec(i, groups):
        if i == n:
            yield [list(g) for g in groups]
            return
        for g in groups:
            if any(apart[j][i] for j in g):
                continue
            g.append(i)
            yield from rec(i + 1, groups)
            g.pop()
        groups.append([i])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


def _gate(points: Sequence[complex], derivs: List[List[float]], scale: float) -> float:
    """The distance beyond which no two points share an admissible group (see
    _cluster); inf when a point is not finite."""
    if not all(map(cmath.isfinite, points)):
        return math.inf
    noise = _eval_noise(derivs[0], (1.0 + 1e-9) * max(map(abs, points)))
    return max(CLUSTER_TOL * scale, 16.0 * noise ** (1.0 / (len(derivs) - 1)))


def _cluster(points: List[complex], derivs: List[List[float]],
             scale: float) -> List[List[complex]]:
    """Coarsest admissible grouping of root approximations.

    A group of size m is admissible when its diameter fits the merge
    tolerance or the theoretical scatter of an m-fold root at its centroid.
    The first partition with the fewest groups, then the least summed
    diameter, wins, in restricted-growth order, so no greedy merge order
    shows.  ``points`` come sorted, as _aberth returns them.

    Only partitions whose blocks pass a gate are tried.  The k = n term of
    _multiple_root_scatter is always present and equals
    _eval_noise(p, centroid) ** (1/n), as p^(n)/n! is 1.  _eval_noise never
    falls as |z| grows, and no centroid lies farther out than the farthest
    point.  So a group holding a pair farther apart than
    max(CLUSTER_TOL * scale, 16 * _eval_noise(p, (1 + 1e-9) max|z|) ** (1/n))
    fails _cluster_ok (see _gate); 16, twice _cluster_ok's 8, and the 1e-9 are
    slack for rounding.
    Well-separated points leave the singletons alone.  A point or a gate that
    is not finite prunes nothing.
    """
    gate = _gate(points, derivs, scale)
    apart = [[abs(x - y) > gate for y in points] for x in points]
    best = None
    for parts in _partitions(len(points), apart):
        clusters = [[points[i] for i in group] for group in parts]
        if not all(_cluster_ok(cl, derivs, scale) for cl in clusters):
            continue
        key = (len(clusters), sum(_diameter(cl) for cl in clusters))
        if best is None or key < best[0]:
            best = (key, clusters)
    assert best is not None  # singletons are always admissible
    return best[1]


def _polish(derivs: List[List[float]], z: complex, m: int, locality: float) -> complex:
    """Refine a cluster centroid.

    An m-fold root of p is a simple root of p^(m-1), so plain Newton there
    restores full accuracy; a locality cap keeps a merged near-cluster from
    wandering to some distant stationary point.
    """
    if m == 1:
        coeffs = derivs[0]
        p, dp = _horner2(coeffs, z)
        best, best_res = z, abs(p)
        for _ in range(POLISH_STEPS):
            if dp == 0:
                break
            z = z - p / dp
            p, dp = _horner2(coeffs, z)
            res = abs(p)
            if res < best_res:
                best, best_res = z, res
        return best
    target = derivs[m - 1]
    start = z
    for _ in range(POLISH_STEPS):
        p, dp = _horner2(target, z)
        if dp == 0:
            break
        step = p / dp
        if abs(z - step - start) > locality:
            break
        z = z - step
    return z


def _clustered_roots(coeffs: Sequence[float],
                     derivs: List[List[float]]) -> List[Tuple[complex, int]]:
    raw = _aberth(coeffs)
    scale = 1.0 + max(abs(z) for z in raw)
    out = []
    for cluster in _cluster(raw, derivs, scale):
        m = len(cluster)
        z = _centroid(cluster)
        diam = _diameter(cluster)
        if m > 1 and diam > 8.0 * _multiple_root_scatter(derivs, z, m):
            # merged by the tolerance alone, so not an m-fold root: a root of
            # p^(m-1) may lie off the group, while the mean keeps the root sum
            out.append((z, m))
            continue
        locality = 4.0 * (diam + CLUSTER_TOL * scale)
        out.append((_polish(derivs, z, m, locality), m))
    return sorted(out, key=lambda t: sort_key_complex(t[0]))


def all_roots(poly) -> List[complex]:
    """All complex roots repeated by multiplicity (cluster representatives)."""
    coeffs = monic_coefficients(poly)
    out: List[complex] = []
    for z, m in _clustered_roots(coeffs, _derivative_coeffs(coeffs)):
        out.extend([z] * m)
    return out


def solve(poly) -> RootSet:
    """Real roots with multiplicities; conjugate pairs only counted."""
    coeffs = monic_coefficients(poly)
    n = len(coeffs) - 1
    derivs = _derivative_coeffs(coeffs)
    clusters = _clustered_roots(coeffs, derivs)
    scale = 1.0 + max(abs(z) for z, _ in clusters)
    real: List[Tuple[float, int]] = []
    cplx: List[Tuple[complex, int]] = []
    for z, m in clusters:
        reality = max(CLUSTER_TOL * scale,
                      8.0 * _multiple_root_scatter(derivs, z, m) if m > 1 else 0.0)
        if abs(z.imag) <= reality:
            real.append((z.real, m))
        else:
            cplx.append((z, m))
    if sum(m for _, m in cplx) % 2 == 1:
        # conjugate symmetry demands an even complex multiplicity; the least
        # imaginary cluster is the noise victim
        cplx.sort(key=lambda t: (abs(t[0].imag), sort_key_complex(t[0])))
        z, m = cplx.pop(0)
        real.append((z.real, m))
    real.sort()
    merged: List[List] = []
    for v, m in real:
        if merged and v - merged[-1][0] <= CLUSTER_TOL * max(1.0, abs(v)):
            prev = merged[-1]
            prev[0] = (prev[0] * prev[1] + v * m) / (prev[1] + m)
            prev[1] += m
        else:
            merged.append([v, m])
    residuals = tuple(abs(_horner2(coeffs, complex(v))[0]) for v, _ in merged)
    return RootSet(
        roots=tuple((v, m) for v, m in merged),
        complex_pairs=sum(m for _, m in cplx) // 2,
        residuals=residuals,
        degree=n,
    )


def brute_discriminant(poly) -> float:
    """prod_{i<j} (x_i - x_j)^2 over all complex roots of a monic polynomial."""
    roots = all_roots(poly)
    prod = complex(1.0)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            diff = roots[i] - roots[j]
            prod *= diff * diff
    if abs(prod.imag) > 1e-8 * abs(prod) and abs(prod) > 0:
        raise PolyclassError(
            f"discriminant product not conjugate-symmetric: {prod!r}"
        )
    return prod.real
