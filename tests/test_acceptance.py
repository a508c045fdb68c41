"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 5's span lower bound is encoded as a strict xfail: the
height-as-minimum claim it inherits is disproved by a 9.6% violation rate
(see the geometry tests and the true-bound check in criterion 5a).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import polyclass as pc
from polyclass.batch import (
    NATURE_BY_CODE,
    REAL_COUNT_BY_CODE,
    REPEATED_BY_CODE,
    aberth_roots_batch,
    brute_discriminant_batch,
    classify_nature_batch,
    min_root_gap_batch,
    real_root_count_batch,
)
from polyclass.quartic import NATURE_STRUCTURE
from polyclass.quintic import (
    delta_tilde_r_value,
    delta_tilde_s_factored,
    delta_tilde_s_value,
)

from conftest import eval_scale, sturm_chain


def _report(criterion: str, passed: bool, detail: str = ""):
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'}"
          f"{'  [' + detail + ']' if detail else ''}")
    assert passed, f"criterion {criterion} failed {detail}"


def _close4(value, expected):
    return abs(float(value) - float(expected)) < 5e-5


class TestCriterion1:
    def test_worked_example_1_regression(self):
        q = pc.Quartic(3.0, 2.0, -1.0, -0.95)
        start = time.perf_counter()
        cls = pc.classify_quartic(q)
        roots = pc.solve(q)
        elapsed = time.perf_counter() - start
        thr = cls.thresholds
        ok = (
            cls.case is pc.ClassificationCase.XVII
            and cls.nature is pc.Nature.FOUR_DISTINCT_REAL
            and _close4(thr.c_lo, -1.2526) and _close4(thr.c_mid, -0.3750)
            and _close4(thr.c_hi, 0.5026)
            and _close4(thr.d_roots[0], 0.0967) and _close4(thr.d_roots[1], -0.9288)
            and _close4(thr.d_roots[2], -1.0000)
            and all(_close4(v, e) for v, e in zip(
                roots.values, (-1.5379, -1.2787, -0.7928, 0.6094)))
            and elapsed < 0.010
        )
        _report("1 (worked example 1, case xvii)", ok,
                f"classification+roots in {elapsed * 1e3:.2f} ms")


class TestCriterion2:
    def test_worked_example_2_regression(self):
        q = pc.Quartic(-4.0, 5.0, -1.75, -0.2)
        cls = pc.classify_quartic(q)
        thr = cls.thresholds
        roots = pc.solve(q)
        t = pc.tetrahedron_data(-4.0, 5.0)
        ok = (
            cls.nature is pc.Nature.FOUR_DISTINCT_REAL
            and _close4(thr.c_mid, -2.0000) and _close4(thr.c_hi, -1.4557)
            and _close4(thr.c_lo, -2.5443)
            and _close4(thr.d_roots[2], -0.2659) and _close4(thr.d_roots[1], -0.1681)
            and _close4(thr.d_roots[0], 0.1840)
            and all(_close4(v, e) for v, e in zip(
                roots.values, (-0.0896, 0.8682, 1.4535, 1.7679)))
            and _close4(t.insphere_radius, 0.4082) and _close4(t.edge, 2.0000)
            and _close4(t.sigma3, 0.2929) and _close4(t.phi1, 0.1835)
            and _close4(t.rho1, 1.4082) and _close4(t.sigma1, 1.7071)
        )
        _report("2 (worked example 2, thresholds/roots/geometry)", ok)


class TestCriterion3:
    def test_million_sample_fuzz(self):
        rng = np.random.default_rng(1234567)
        total = 1_000_000
        chunk = 1 << 17
        start = time.perf_counter()
        agree_count = 0
        solid_failures = []
        done = 0
        while done < total:
            n = min(chunk, total - done)
            abcd = rng.uniform(-10.0, 10.0, size=(n, 4))
            codes, margins = classify_nature_batch(
                abcd[:, 0], abcd[:, 1], abcd[:, 2], abcd[:, 3])
            roots = aberth_roots_batch(abcd)
            counts = real_root_count_batch(roots)
            scale = 1.0 + np.abs(roots).max(axis=1)
            oracle_repeat = min_root_gap_batch(roots) < 1e-6 * scale
            agree = ((REAL_COUNT_BY_CODE[codes] == counts)
                     & (REPEATED_BY_CODE[codes] == oracle_repeat))
            # the scalar oracle is authoritative where the fast path disagrees
            for i in np.flatnonzero(~agree):
                rs = pc.solve(pc.Quartic(*abcd[i]))
                nature = NATURE_BY_CODE[codes[i]]
                expected_count, expected_mults = NATURE_STRUCTURE[nature]
                if (rs.real_count == expected_count
                        and tuple(sorted(rs.multiplicities)) == expected_mults):
                    agree[i] = True
                elif margins[i] > 10.0:
                    solid_failures.append((abcd[i], margins[i]))
            agree_count += int(agree.sum())
            done += n
        elapsed = time.perf_counter() - start
        rate = agree_count / total
        ok = rate >= 0.999 and not solid_failures and elapsed < 60.0
        _report("3 (10^6 classifier-vs-oracle fuzz)", ok,
                f"agreement {rate:.6f}, solid disagreements "
                f"{len(solid_failures)}, {elapsed:.1f} s")


class TestCriterion4:
    def test_cubic_property_suite(self):
        rng = np.random.default_rng(424242)
        n = 100_000
        start = time.perf_counter()
        roots = np.sort(rng.uniform(-5.0, 5.0, size=(n, 3)), axis=1)
        viete_err = 0.0
        span_ok = iso_ok = True
        for r1, r2, r3 in roots:
            a = -(r1 + r2 + r3)
            b = r1 * r2 + r1 * r3 + r2 * r3
            c = -r1 * r2 * r3
            cu = pc.Cubic(a, b, c)
            got = pc.viete_roots(cu).expanded()
            viete_err = max(viete_err,
                            abs(got[0] - r1), abs(got[1] - r2), abs(got[2] - r3))
            radius = math.sqrt(a * a - 3 * b) / 3.0
            span = r3 - r1
            span_ok &= (3 * radius - 1e-9 <= span
                        <= math.sqrt(12.0) * radius + 1e-9)
            iso = pc.cubic_isolation_intervals(cu)
            for x, (lo, hi) in zip((r1, r2, r3), iso.intervals):
                iso_ok &= lo - 1e-9 <= x <= hi + 1e-9
        elapsed = time.perf_counter() - start
        ok = viete_err <= 1e-9 and span_ok and iso_ok and elapsed < 20.0
        _report("4 (10^5 cubic suite: trig roots, span, isolation)", ok,
                f"max trig-root error {viete_err:.2e}, {elapsed:.2f} s")


def _random_quartic_roots(n):
    rng = np.random.default_rng(987654)
    r = np.sort(rng.uniform(-5.0, 5.0, size=(n, 4)), axis=1)
    a = -r.sum(axis=1)
    b = np.zeros(n)
    for i in range(4):
        for j in range(i + 1, 4):
            b += r[:, i] * r[:, j]
    return r, a, b


class TestCriterion5:
    def test_root_bounds_span_upper_and_attainment(self):
        n = 100_000
        start = time.perf_counter()
        r, a, b = _random_quartic_roots(n)
        bounds_ok = span_upper_ok = span_lower_true_ok = True
        for i in range(n):
            lam_min, lam_max = pc.root_bounds(a[i], b[i])
            bounds_ok &= lam_min - 1e-9 <= r[i, 0] and r[i, 3] <= lam_max + 1e-9
            _, edge = pc.span_bounds(a[i], b[i])
            span = r[i, 3] - r[i, 0]
            span_upper_ok &= span <= edge + 1e-9
            # remediated lower bound: the minimal tetrahedron width is the side
            span_lower_true_ok &= span >= edge / math.sqrt(2.0) - 1e-9

        # exact attainment: triple+single family hits h and lambda_min
        cls = pc.classify_quartic(pc.Quartic(0.0, -6.0, 8.0, -3.0))
        values = cls.closed_form_roots.expanded()
        h, edge_one = pc.span_bounds(0.0, -6.0)
        span_triple = values[-1] - values[0]
        attain_triple = (abs(span_triple - 4.0) < 1e-12 and span_triple == h
                         and abs(values[0] - pc.root_bounds(0.0, -6.0)[0]) < 1e-12)
        # two-double-pair family hits the true minimum (the side)
        cls2 = pc.classify_quartic(pc.Quartic(0.0, -2.0, 0.0, 1.0))
        v2 = cls2.closed_form_roots.expanded()
        _, edge_two = pc.span_bounds(0.0, -2.0)
        attain_pairs = abs((v2[-1] - v2[0]) - edge_two / math.sqrt(2.0)) < 1e-12
        # middle-double family attains the maximum L
        cls3 = pc.classify_quartic(pc.Quartic(0.0, -2.0, 0.0, 0.0))
        v3 = cls3.closed_form_roots.expanded()
        attain_edge = abs((v3[-1] - v3[0]) - edge_two) < 1e-12

        elapsed = time.perf_counter() - start
        ok = (bounds_ok and span_upper_ok and span_lower_true_ok
              and attain_triple and attain_pairs and attain_edge
              and elapsed < 30.0)
        _report("5 (10^5 quartic suite: root bounds, span <= L, span >= side, "
                "attainments)", ok, f"{elapsed:.2f} s")

    @pytest.mark.xfail(strict=True,
                       reason="span >= h is unattainable: the minimal "
                              "tetrahedron projection is the side L/sqrt(2), "
                              "not the height; ~10% of random-root quartics "
                              "sit in [side, h)")
    def test_span_lower_bound_as_stated(self):
        n = 100_000
        r, a, b = _random_quartic_roots(n)
        gap = 3 * a * a - 8 * b
        h = math.sqrt(3.0) / 3.0 * np.sqrt(gap)
        span = r[:, 3] - r[:, 0]
        violations = int((span < h - 1e-9).sum())
        _report("5-span-as-stated (span >= h for all)", violations == 0,
                f"{violations} of {n} below h")


class TestCriterion6:
    def test_discriminant_identities(self):
        rng = np.random.default_rng(31415)
        n = 10_000
        abcd = rng.uniform(-10.0, 10.0, size=(n, 4))
        roots = aberth_roots_batch(abcd)
        brute = brute_discriminant_batch(roots)
        closed = np.array([pc.discriminant_quartic(pc.Quartic(*row)) for row in abcd])
        rel = np.abs(brute - closed) / np.abs(closed)
        eq13_ok = bool((rel < 1e-8).all())

        worst_d3 = 0.0
        sturm_ok = True
        for row in abcd[:2000]:
            q = pc.Quartic(*row)
            fact, exp = pc.delta3(q), pc.delta3_expanded(q)
            denom = max(abs(exp), 1e-300)
            worst_d3 = max(worst_d3, abs(fact - exp) / denom)
            # the exact Sturm chain of the Fraction copy ends in a constant
            # whose sign is the sign of the discriminant
            exact = [Fraction(v) for v in row]
            chain = sturm_chain([1, *exact])
            disc = pc.discriminant_quartic(pc.Quartic(*exact))
            sturm_ok &= len(chain) == 5 and disc != 0 and (chain[-1][0] > 0) == (disc > 0)
        d3_ok = worst_d3 < 1e-10
        ok = eq13_ok and d3_ok and sturm_ok
        _report("6 (discriminant identities)", ok,
                f"max Eq13 rel err {rel.max():.2e}, max delta3 rel err {worst_d3:.2e}")


class TestCriterion7:
    # the twelve zero-discriminant cases reachable in the classification
    ZERO_DISC_CASES = ("ii", "v", "viii", "xi", "xiv", "xvi", "xviii",
                       "xxi", "xxiii", "xxvi", "xxviii", "xxxi")

    def test_closed_form_roots_for_every_zero_discriminant_case(self):
        from test_quartic import _instances_for_all_cases

        instances = dict(_instances_for_all_cases())
        failures = []
        for name in self.ZERO_DISC_CASES:
            q = instances[name]
            cls = pc.classify_quartic(q)
            if cls.case.value != name or cls.closed_form_roots is None:
                failures.append((name, "missing closed forms"))
                continue
            coeffs = [1.0, q.a, q.b, q.c, q.d]
            rs = pc.solve(q)
            for (value, mult), (ov, om) in zip(cls.closed_form_roots.roots, rs.roots):
                residual = abs(q(value))
                if residual > 1e-8 * eval_scale(coeffs, value):
                    failures.append((name, f"residual {residual:.2e}"))
                if mult != om or abs(value - ov) > 1e-6 * (1 + abs(ov)):
                    failures.append((name, "oracle multiplicity mismatch"))
        _report("7 (closed forms for all 12 zero-discriminant cases)",
                not failures, f"failures: {failures}" if failures else "12/12")


class TestCriterion8:
    def test_reverse_round_trip(self):
        natures = list(pc.Nature)
        point_natures = {
            pc.Nature.TWO_EQUAL_REAL, pc.Nature.FOUR_REAL_DOUBLE_PAIR,
            pc.Nature.TWO_DOUBLE_PAIRS, pc.Nature.TRIPLE_PLUS_SINGLE,
            pc.Nature.QUADRUPLE_ROOT,
        }
        rng = np.random.default_rng(271828)
        total = 10_000
        start = time.perf_counter()
        failures = 0
        for k in range(total):
            nature = natures[k % len(natures)]
            a = float(rng.uniform(-10, 10))
            target = pc.NatureTarget(
                nature=nature, a=a, strategy="random", seed=k,
                exact=nature in point_natures)
            q = pc.synthesize(target)
            if pc.classify_quartic(q).nature is not nature:
                failures += 1
        elapsed = time.perf_counter() - start
        _report("8 (10^4 reverse round trips)", failures == 0,
                f"failures {failures}, {elapsed:.1f} s")


class TestCriterion9:
    def test_quintic_cascade(self):
        rng = np.random.default_rng(161803)
        failures = []
        for _ in range(100):
            p, q, r, s, t = rng.uniform(-3.0, 3.0, size=5)
            closed = pc.delta5_eval(pc.delta5_coefficients(p, q, r, s), t)
            roots = pc.all_roots(pc.Quintic(p, q, r, s, t))
            prod = complex(1.0)
            for i in range(5):
                for j in range(i + 1, 5):
                    diff = roots[i] - roots[j]
                    prod *= diff * diff
            if abs(closed - prod.real) > 1e-7 * max(abs(closed), 1e-30):
                failures.append(("delta5", p, q, r, s, t))
        tilde_ok = all(
            delta_tilde_r_value(p, q) == 8 * (2 * p * p - 5 * q) ** 3
            for p, q in [(Fraction(1), Fraction(-2)), (Fraction(-3, 2), Fraction(1, 3)),
                         (Fraction(0), Fraction(7))]
        )
        s_agree = True
        for _ in range(200):
            p, q, r = rng.uniform(-4.0, 4.0, size=3)
            if 2 * p * p - 5 * q <= 0:
                continue  # R1, R2 not real
            expanded = delta_tilde_s_value(p, q, r)
            factored = delta_tilde_s_factored(p, q, r)
            s_agree &= abs(factored - expanded) <= 1e-10 * max(abs(expanded), 1e-6)
        ok = not failures and tilde_ok and s_agree
        _report("9 (quintic cascade identities)", ok,
                f"delta5 failures {len(failures)}")


class TestCriterion10:
    def test_selftest_and_render_determinism(self, tmp_path):
        from polyclass.cli import main, run_selftest

        lines_a, ok_a = run_selftest(seed=7)
        lines_b, ok_b = run_selftest(seed=7)
        selftest_ok = ok_a and ok_b and lines_a == lines_b

        p1, p2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
        main(["render", "--quartic", "3", "2", "-1", "-0.95", "--out", str(p1)])
        main(["render", "--quartic", "3", "2", "-1", "-0.95", "--out", str(p2)])
        render_ok = p1.read_bytes() == p2.read_bytes()
        c1, c2 = tmp_path / "c1.svg", tmp_path / "c2.svg"
        main(["render", "--cubic", "0", "-1", "0", "--out", str(c1)])
        main(["render", "--cubic", "0", "-1", "0", "--out", str(c2)])
        render_ok &= c1.read_bytes() == c2.read_bytes()
        _report("10 (selftest and render determinism)", selftest_ok and render_ok)
