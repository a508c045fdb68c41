"""Simultaneous-iteration root finder: values, multiplicities, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass import (
    Cubic,
    NoConvergence,
    Quartic,
    Quintic,
    all_roots,
    brute_discriminant,
    discriminant_quartic,
    solve,
)
from polyclass import oracle
from polyclass.numeric import sort_key_complex

from conftest import eval_scale, monic_from_roots

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


class TestSolve:
    def test_three_simple_roots(self):
        rs = solve(Cubic(0.0, -1.0, 0.0))
        assert rs.multiplicities == (1, 1, 1)
        assert rs.values == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)
        assert rs.complex_pairs == 0

    def test_quadruple_root(self):
        rs = solve(Quartic(4.0, 6.0, 4.0, 1.0))
        assert rs.roots == ((pytest.approx(-1.0, abs=1e-7), 4),)

    def test_triple_plus_single(self):
        rs = solve(Quartic(0.0, -6.0, 8.0, -3.0))
        assert rs.multiplicities == (1, 3)
        assert rs.values == pytest.approx((-3.0, 1.0), abs=1e-8)

    def test_worked_example_roots(self):
        rs = solve(Quartic(3.0, 2.0, -1.0, -0.95))
        assert rs.values == pytest.approx(
            (-1.5379, -1.2787, -0.7928, 0.6094), abs=5e-5)

    def test_complex_pair_counting(self):
        assert solve(Quartic(0.0, 0.0, 0.0, 1.0)).complex_pairs == 2
        assert solve(Quintic(0.0, 0.0, 0.0, 1.0, 0.0)).complex_pairs == 2
        rs = solve(Quartic(0.0, 2e-8, 0.0, 1e-16))  # (x^2+1e-8)^2
        assert rs.real_count == 0 and rs.complex_pairs == 2

    def test_quadratic_closed_form(self):
        rs = solve([1.0, 0.0, -4.0])
        assert rs.values == pytest.approx((-2.0, 2.0), abs=1e-14)

    def test_residuals_reported(self):
        rs = solve(Quartic(3.0, 2.0, -1.0, -0.95))
        coeffs = [1.0, 3.0, 2.0, -1.0, -0.95]
        for v, r in zip(rs.values, rs.residuals):
            assert r <= 1e-12 * eval_scale(coeffs, v)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            solve([1.0, 2.0])
        with pytest.raises(ValueError):
            solve([1.0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError):
            solve([0.0, 1.0, 1.0])

    def test_no_convergence_carries_trace(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergence) as err:
            solve(Quintic(1.0, -3.0, 2.0, 5.0, -7.0))
        assert len(err.value.trace) == 1


class TestDeterminism:
    def test_bit_identical_runs(self):
        q = Quartic(1.3, -7.2, 0.4, 2.25)
        first = solve(q)
        second = solve(q)
        assert first == second
        assert all_roots(q) == all_roots(q)


class TestReconstruction:
    @settings(max_examples=150, deadline=None)
    @given(coeff, coeff, coeff, coeff)
    def test_quartic_coefficients_recovered(self, a, b, c, d):
        roots = all_roots(Quartic(a, b, c, d))
        rec = np.atleast_1d(np.real(np.poly(roots)))
        for got, want in zip(rec[1:], (a, b, c, d)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(coeff, coeff, coeff, coeff, coeff)
    def test_quintic_coefficients_recovered(self, p, q, r, s, t):
        roots = all_roots(Quintic(p, q, r, s, t))
        rec = np.atleast_1d(np.real(np.poly(roots)))
        for got, want in zip(rec[1:], (p, q, r, s, t)):
            assert got == pytest.approx(want, rel=1e-8, abs=1e-8)

    def test_tolerance_merge_keeps_the_root_sum(self):
        # roots 0 (triple) and +-8.3e-7: the merge tolerance groups 0, 0, 0 and
        # 8.3e-7, which are no 4-fold root, so the group stays at its mean
        q = -6.932438034147816e-13
        roots = all_roots(Quintic(0.0, q, 0.0, 0.0, 0.0))
        rec = np.real(np.poly(roots))
        assert rec[1:] == pytest.approx((0.0, q, 0.0, 0.0, 0.0), abs=1e-12)


class TestBruteDiscriminant:
    def test_simple_cubic(self):
        assert brute_discriminant(Cubic(0.0, -1.0, 0.0)) == pytest.approx(4.0, rel=1e-12)

    def test_repeated_roots_give_zero(self):
        assert brute_discriminant(Quartic(0.0, -2.0, 0.0, 1.0)) == 0.0

    def test_matches_closed_form(self, rng):
        for _ in range(200):
            a, b, c, d = rng.uniform(-10, 10, size=4)
            q = Quartic(a, b, c, d)
            closed = discriminant_quartic(q)
            assert brute_discriminant(q) == pytest.approx(closed, rel=1e-8, abs=1e-6)


class TestClusterResolution:
    def test_separated_close_roots_stay_separate(self):
        # gap 1e-4 is far above the scatter radius of a genuine double root
        coeffs = monic_from_roots([1.0, 1.0 + 1e-4, -2.0, 3.0])
        rs = solve(coeffs)
        assert rs.multiplicities == (1, 1, 1, 1)

    def test_below_cluster_tol_merges(self):
        coeffs = monic_from_roots([1.0, 1.0 + 1e-8, -2.0, 3.0])
        rs = solve(coeffs)
        assert rs.multiplicities == (1, 2, 1)


# --- the gated partition search against the exhaustive one it replaced -------------

def _reference_partitions(n):
    """Every set partition of range(n) in restricted-growth order."""
    def rec(i, groups):
        if i == n:
            yield [list(g) for g in groups]
            return
        for g in groups:
            g.append(i)
            yield from rec(i + 1, groups)
            g.pop()
        groups.append([i])
        yield from rec(i + 1, groups)
        groups.pop()

    yield from rec(0, [])


def _reference_cluster(points, derivs, scale):
    """The first admissible partition with the fewest groups, then the least
    summed diameter, among all of them."""
    best = None
    for parts in _reference_partitions(len(points)):
        clusters = [[points[i] for i in group] for group in parts]
        if not all(oracle._cluster_ok(cl, derivs, scale) for cl in clusters):
            continue
        key = (len(clusters), sum(oracle._diameter(cl) for cl in clusters))
        if best is None or key < best[0]:
            best = (key, clusters)
    return best[1]


def _hex_groups(groups):
    return [[(z.real.hex(), z.imag.hex()) for z in g] for g in groups]


@st.composite
def root_points(draw):
    """2 to 5 points with their monic polynomial: random roots, near-clusters of
    spread 10^-k (1 + |z|), k = 3..15, exact repeats and conjugate pairs."""
    n = draw(st.integers(2, 5))
    value = st.floats(-5, 5, allow_nan=False)
    roots = []
    while len(roots) < n:
        kind = draw(st.sampled_from(("free", "near", "repeat", "pair")))
        if kind == "pair" and len(roots) <= n - 2:
            z = complex(draw(value), draw(st.floats(1e-12, 5)))
            roots += [z, z.conjugate()]
        elif kind == "near" and roots:
            z = roots[draw(st.integers(0, len(roots) - 1))].real
            k = draw(st.integers(3, 15))
            roots.append(complex(z + draw(st.floats(-1, 1)) * 10.0 ** -k * (1 + abs(z))))
        elif kind == "repeat" and roots and roots[-1].imag == 0:
            roots.append(roots[draw(st.integers(0, len(roots) - 1))])
        else:
            roots.append(complex(draw(value)))
    roots = roots[:n]
    if sum(1 for z in roots if z.imag != 0) % 2:  # a pair cut in half: keep it real
        roots = [complex(z.real) for z in roots]
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [c - r * prev for c, prev in zip(coeffs + [0j], [0j] + coeffs)]
    coeffs = [c.real for c in coeffs]
    points = sorted(roots, key=sort_key_complex)
    return points, oracle._derivative_coeffs(coeffs), 1.0 + max(abs(z) for z in points)


@settings(max_examples=400, deadline=None)
@given(root_points())
def test_gated_cluster_equals_the_exhaustive_search(case):
    points, derivs, scale = case
    got = oracle._cluster(points, derivs, scale)
    want = _reference_cluster(points, derivs, scale)
    assert _hex_groups(got) == _hex_groups(want)


@settings(max_examples=400, deadline=None)
@given(root_points())
def test_a_group_with_a_pair_beyond_the_gate_is_never_admissible(case):
    points, derivs, scale = case
    gate = oracle._gate(points, derivs, scale)
    for mask in range(1, 1 << len(points)):
        group = [z for i, z in enumerate(points) if mask >> i & 1]
        if any(abs(x - y) > gate for x in group for y in group):
            assert not oracle._cluster_ok(group, derivs, scale)


def test_gated_partitions_keep_the_exhaustive_order():
    far = [[False, True, False, False], [True, False, False, False],
           [False, False, False, True], [False, False, True, False]]
    want = [p for p in _reference_partitions(4)
            if not any(far[i][j] for g in p for i in g for j in g)]
    assert list(oracle._partitions(4, far)) == want
    assert list(oracle._partitions(4, [[False] * 4] * 4)) == list(_reference_partitions(4))


def test_a_point_that_is_not_finite_prunes_nothing():
    derivs = oracle._derivative_coeffs([1.0, 0.0, -1.0])
    assert oracle._gate([complex(math.nan), 1 + 0j], derivs, 2.0) == math.inf


def _scatter_calls_inside_cluster(monkeypatch, coeffs):
    """solve(coeffs), counting _multiple_root_scatter calls made inside _cluster."""
    inside, calls = [False], []
    cluster, scatter = oracle._cluster, oracle._multiple_root_scatter

    def counting_cluster(*args):
        inside[0] = True
        try:
            return cluster(*args)
        finally:
            inside[0] = False

    def counting_scatter(*args):
        if inside[0]:
            calls.append(args)
        return scatter(*args)

    monkeypatch.setattr(oracle, "_cluster", counting_cluster)
    monkeypatch.setattr(oracle, "_multiple_root_scatter", counting_scatter)
    return solve(coeffs), len(calls)


def test_separated_roots_test_no_group(monkeypatch):
    coeffs = monic_from_roots([-3.0, -1.0, 0.5, 2.0])  # (x+3)(x+1)(x-0.5)(x-2)
    rs, calls = _scatter_calls_inside_cluster(monkeypatch, coeffs)
    assert rs.values == pytest.approx((-3.0, -1.0, 0.5, 2.0), abs=1e-12)
    assert calls == 0


def test_a_triple_root_still_tests_its_group(monkeypatch):
    # its approximations spread by about eps^(1/3), beyond the merge tolerance
    coeffs = monic_from_roots([1.0, 1.0, 1.0, -2.0])
    rs, calls = _scatter_calls_inside_cluster(monkeypatch, coeffs)
    assert rs.multiplicities == (1, 3)
    assert calls > 0
