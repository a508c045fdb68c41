"""Shared helpers: polynomial construction from roots and an independent Sturm chain."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import pytest


def cubic_coeffs_from_roots(r1, r2, r3) -> Tuple[float, float, float]:
    a = -(r1 + r2 + r3)
    b = r1 * r2 + r1 * r3 + r2 * r3
    c = -r1 * r2 * r3
    return a, b, c


def near_double_cubic_coeffs(n: int = 5000, seed: int = 2024) -> Iterator[Tuple[float, ...]]:
    """(x - u)^2 (x - v) with c moved off the double root by 1e-14 to 1e-8: one
    real root or three, with the arccos argument of the Viete formulas near +-1."""
    rng = random.Random(seed)
    for _ in range(n):
        u, v = rng.uniform(-3, 3), rng.uniform(-3, 3)
        shift = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-14, -8)
        yield -(2 * u + v), u * u + 2 * u * v, -u * u * v + shift


def quartic_coeffs_from_roots(r1, r2, r3, r4) -> Tuple[float, float, float, float]:
    a = -(r1 + r2 + r3 + r4)
    b = (r1 * r2 + r1 * r3 + r1 * r4 + r2 * r3 + r2 * r4 + r3 * r4)
    c = -(r1 * r2 * r3 + r1 * r2 * r4 + r1 * r3 * r4 + r2 * r3 * r4)
    d = r1 * r2 * r3 * r4
    return a, b, c, d


def monic_from_roots(roots: Sequence[float]) -> List[float]:
    """Descending coefficients of prod (x - r), leading 1 included."""
    coeffs = [1.0]
    for r in roots:
        new = [coeffs[0]]
        for k in range(1, len(coeffs)):
            new.append(coeffs[k] - r * coeffs[k - 1])
        new.append(-r * coeffs[-1])
        coeffs = new
    return coeffs


def quintic_coeffs_from_roots(roots: Sequence[float]) -> Tuple[float, ...]:
    return tuple(monic_from_roots(roots)[1:])


def eval_scale(coeffs_desc: Sequence[float], x: float) -> float:
    """Sum of monomial magnitudes: the natural residual scale at x."""
    total = 0.0
    for c in coeffs_desc:
        total = total * abs(x) + abs(c)
    return total


def root_gap_bound(coeffs_desc: Sequence[float], x: float) -> float:
    """How far apart two sound root finders may place the simple root x of the
    monic polynomial with descending coefficients coeffs_desc: 1e-12 (1 + |x|),
    plus twice noise / |p'(x)|, the distance within which the evaluation noise
    bound of oracle._eval_noise, 4 (n + 1) eps sum |c_k| |x|^k, can hide p's sign."""
    n = len(coeffs_desc) - 1
    dp = 0.0
    for k, c in enumerate(coeffs_desc[:-1]):
        dp = dp * x + (n - k) * c
    noise = 4.0 * (n + 1) * 2.220446049250313e-16 * eval_scale(coeffs_desc, x)
    return 1e-12 * (1.0 + abs(x)) + 2.0 * noise / abs(dp)


def assert_roots_agree(roots, reference, coeffs_desc) -> None:
    """Two ascending lists of (value, multiplicity) pairs have the same
    multiplicities and values within root_gap_bound of each other."""
    assert [m for _, m in roots] == [m for _, m in reference]
    for (x, _), (y, _) in zip(roots, reference):
        assert abs(x - y) <= root_gap_bound(coeffs_desc, y), (x, y)


def poly_divmod(num: List[Fraction], den: List[Fraction]):
    """Polynomial division over Fractions; descending coefficients."""
    num = list(num)
    quot: List[Fraction] = []
    while len(num) >= len(den):
        factor = num[0] / den[0]
        quot.append(factor)
        for i in range(len(den)):
            num[i] -= factor * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return quot, num


def sturm_chain(coeffs: Sequence[Fraction]) -> List[List[Fraction]]:
    """Sturm sequence of a polynomial with Fraction coefficients, descending."""
    p0 = [Fraction(c) for c in coeffs]
    n = len(p0) - 1
    p1 = [p0[i] * (n - i) for i in range(n)]
    chain = [p0, p1]
    while len(chain[-1]) > 1:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def distinct_real_root_count(coeffs: Sequence[Fraction]) -> int:
    """Distinct real roots of a polynomial with Fraction coefficients, descending:
    the sign changes of its Sturm chain at -inf minus those at +inf."""
    chain = sturm_chain(coeffs)
    changes = lambda signs: sum(x != y for x, y in zip(signs, signs[1:]))
    at_plus = [p[0] > 0 for p in chain]
    at_minus = [(p[0] > 0) != (len(p) % 2 == 0) for p in chain]
    return changes(at_minus) - changes(at_plus)


def _value(p: Sequence[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in p:
        total = total * x + c
    return total


def sign_changes(chain: List[List[Fraction]], x: Fraction) -> int:
    """Sign changes of a Sturm chain at x, zeros dropped: the distinct roots in
    (lo, hi] are sign_changes(chain, lo) - sign_changes(chain, hi)."""
    signs = [v > 0 for v in (_value(p, x) for p in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def isolated_real_roots(coeffs: Sequence[Fraction], width: Fraction) -> List[Fraction]:
    """The distinct real roots of a polynomial with Fraction coefficients,
    descending, each as the midpoint of an interval no wider than width that
    holds it alone.  Intervals are halved from Cauchy's bound until the
    Sturm chain counts one root in each; one where the polynomial changes
    sign is then halved on that sign alone, the rest on the chain."""
    chain = sturm_chain(coeffs)
    p = chain[0]
    lead = Fraction(coeffs[0])
    bound = 1 + max(abs(Fraction(c) / lead) for c in coeffs[1:])
    roots, stack = [], [(-bound, sign_changes(chain, -bound), bound, sign_changes(chain, bound))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        count = v_lo - v_hi  # roots in (lo, hi]
        if count == 1 and _value(p, lo) * _value(p, hi) < 0:
            negative_at_lo = _value(p, lo) < 0
            while hi - lo > width:
                mid = (lo + hi) / 2
                at_mid = _value(p, mid)
                if at_mid == 0:
                    lo = hi = mid
                elif (at_mid < 0) == negative_at_lo:
                    lo = mid
                else:
                    hi = mid
            roots.append((lo + hi) / 2)
        elif count == 1 and hi - lo <= width:
            roots.append((lo + hi) / 2)
        elif count:
            mid = (lo + hi) / 2
            v_mid = sign_changes(chain, mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
    return sorted(roots, reverse=True)


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(20240817)


@pytest.fixture
def sign_tests(monkeypatch):
    """The Tolerance sign tests made while the test runs, by method name."""
    from polyclass.numeric import Tolerance

    calls = []
    for name in ("sign_terms", "compare_terms"):
        def counted(self, terms, _name=name, _original=getattr(Tolerance, name)):
            calls.append(_name)
            return _original(self, terms)

        monkeypatch.setattr(Tolerance, name, counted)
    return calls
