"""Vectorized classifier and root finder against their scalar references."""

import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass import (
    ClassificationCase,
    Nature,
    NatureTarget,
    Quartic,
    classify_quartic,
    discriminant_quartic,
    synthesize,
)
from polyclass import all_roots, batch
from polyclass.batch import (
    CASE_BY_INDEX,
    NATURE_BY_CODE,
    NATURE_CODE_BY_CASE,
    REAL_COUNT_BY_CODE,
    REAL_TOL,
    REPEATED_BY_CODE,
    _INDEX,
    _inverse_row_sums,
    _numpy_order_sum,
    _tables,
    aberth_roots_batch,
    brute_discriminant_batch,
    classify_case_batch,
    classify_nature_batch,
    min_root_gap_batch,
    real_root_count_batch,
)
from polyclass.quartic import _CASE_TO_NATURE, _Coeffs, _cascade


def _scalar(a, b, c, d):
    """Scalar case and minimum |margin|, the quantities the batch path returns."""
    cls = classify_quartic(Quartic(a, b, c, d))
    return cls.case, min(abs(x.margin_units) for x in cls.comparisons)


def _assert_scalar_equals_batch(abcd):
    """Same case and bit-identical minimum margin on every column of abcd."""
    cases, margins = classify_case_batch(*abcd)
    for i in range(abcd.shape[1]):
        case, margin = _scalar(*(float(v) for v in abcd[:, i]))
        assert CASE_BY_INDEX[cases[i]] is case, abcd[:, i]
        assert float(margins[i]).hex() == margin.hex(), abcd[:, i]


def _integer_grid():
    g = np.arange(-4.0, 5.0)
    return np.stack([x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij")])


def _scaled(abcd, lam):
    return abcd * np.array([lam, lam ** 2, lam ** 3, lam ** 4])[:, None]


dyadic = st.integers(-64, 64).map(lambda n: n / 8.0)


def _tensor_aberth(trailing, max_iter=120, tol=1e-12, start=None):
    """The earlier batch Aberth iteration, kept as a reference.

    Every step gathers the active rows, sums an N x d x d tensor of
    1/(z_i - z_j) with numpy's ``sum`` and scatters the rows back.  The
    iteration starts from start (N, d), or else on the circle of radius
    1 + max|coefficient|.
    """
    n_poly, degree = trailing.shape
    if start is None:
        radius = 1.0 + np.abs(trailing).max(axis=1)
        angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
        z = radius[:, None] * np.exp(1j * angles)[None, :]
    else:
        z = np.array(start, dtype=np.complex128)
    coeffs = np.concatenate([np.ones((n_poly, 1)), trailing], axis=1)
    active = np.ones(n_poly, dtype=bool)
    diag = np.arange(degree)
    for _ in range(max_iter):
        za, ca = z[active], coeffs[active]
        p = np.full(za.shape, ca[:, 0][:, None], dtype=np.complex128)
        dp = np.zeros_like(za)
        for k in range(1, degree + 1):
            dp = dp * za + p
            p = p * za + ca[:, k][:, None]
        diff = za[:, :, None] - za[:, None, :]
        diff[:, diag, diag] = 1.0
        inv = 1.0 / np.where(diff == 0, 1e-300, diff)
        inv[:, diag, diag] = 0.0
        ratio = p / np.where(dp == 0, 1e-300, dp)
        denom = 1.0 - ratio * inv.sum(axis=2)
        w = ratio / np.where(denom == 0, 1.0, denom)
        za = za - w
        z[active] = za
        done = (np.abs(w) / (1.0 + np.abs(za))).max(axis=1) < tol
        if done.any():
            active[np.flatnonzero(active)[done]] = False
            if not active.any():
                break
    return z


def _tensor_min_gap(roots):
    diff = np.abs(roots[:, :, None] - roots[:, None, :])
    degree = roots.shape[1]
    diff[:, np.arange(degree), np.arange(degree)] = np.inf
    return diff.min(axis=(1, 2))


def _reference_real_root_count(roots):
    """The earlier one-line real-root count, kept as a reference."""
    scale = 1.0 + np.abs(roots).max(axis=1)
    return (np.abs(roots.imag) <= REAL_TOL * scale[:, None]).sum(axis=1).astype(np.int8)


def _reference_keys(q):
    """Sign key and per-predicate margins of every row, all nine predicates
    evaluated on every row."""
    key = np.zeros(q.a.shape, dtype=np.intp)
    margins = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for fn in batch._PREDICATES:
            digit, margin = batch._sign_digit_and_margin(fn(q))
            key *= 3
            key += digit
            margins.append(margin)
    return key, margins


def _reference_classify_block(q):
    """The earlier block classifier, which evaluates all nine predicates on
    every row, kept as a reference."""
    case_of, consulted, _ = _tables()
    key, margins = _reference_keys(q)
    mask = consulted[key]
    min_margin = np.full(key.shape, np.inf)
    for p, margin in enumerate(margins):
        np.minimum(min_margin, margin, out=min_margin,
                   where=(mask & (1 << p)) != 0)
    return case_of[key], min_margin


def _consulted(abcd):
    """Consulted-predicate bitmask of each column of abcd."""
    return _tables()[1][_reference_keys(_Coeffs(*abcd))[0]]


def _repeated(roots):
    return min_root_gap_batch(roots) < 1e-6 * (1.0 + np.abs(roots).max(axis=1))


def _matched_gap(roots, ref):
    """Largest |roots - ref| of each row, under the pairing of the roots that
    makes it least."""
    return np.min([np.abs(roots[:, list(perm)] - ref).max(axis=1)
                   for perm in itertools.permutations(range(roots.shape[1]))], axis=0)


def _monic_from_roots(roots):
    """Trailing coefficients (N, d) of the monic polynomials with roots (N, d)."""
    coeffs = np.zeros((len(roots), roots.shape[1] + 1))
    coeffs[:, 0] = 1.0
    for k in range(roots.shape[1]):  # multiply by x - root k
        coeffs[:, 1:] -= roots[:, k:k + 1] * coeffs[:, :-1]
    return coeffs[:, 1:]


def _sums_in_reproduced_order(rng, degree=4):
    """Whether this numpy's ``sum`` over a short complex axis adds in the order
    ``aberth_roots_batch`` reproduces; only then are its roots the tensor
    iteration's bit for bit."""
    t = rng.standard_normal((1000, degree)) + 1j * rng.standard_normal((1000, degree))
    return np.array_equal(t.sum(axis=1), _numpy_order_sum(list(t.T)))


def _count_step_rows(monkeypatch):
    """A list that records the row count of each ``_aberth_step`` call."""
    rows = []
    step = batch._aberth_step

    def counted(z, c):
        rows.append(z.shape[1])
        return step(z, c)

    monkeypatch.setattr(batch, "_aberth_step", counted)
    return rows


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


#: x^4 (all-zero trailing coefficients), (x - 1)^4 and (x^2 - 1)^2, with
#: their exact roots
MULTIPLE_ROOTS = np.array([[0.0, 0.0, 0.0, 0.0], [-4.0, 6.0, -4.0, 1.0], [0.0, -2.0, 0.0, 1.0]])
EXACT_ROOTS = [[0.0] * 4, [1.0] * 4, [-1.0, -1.0, 1.0, 1.0]]
#: x^4 + 1e60 x^3 + 1: finite, but its Ferrari roots overflow (the
#: depressed quartic's q^2 is about 1.6e358), while the circle-started
#: iteration stays finite
FERRARI_OVERFLOW = np.array([[1e60, 0.0, 0.0, 1.0]])


class TestNatureTables:
    def test_codes_keep_their_order(self):
        # stored codes and the benchmark's nature -> code map depend on it
        assert NATURE_BY_CODE == (
            Nature.NO_REAL,
            Nature.TWO_EQUAL_REAL,
            Nature.TWO_DISTINCT_REAL,
            Nature.FOUR_DISTINCT_REAL,
            Nature.FOUR_REAL_DOUBLE_PAIR,
            Nature.TWO_DOUBLE_PAIRS,
            Nature.TRIPLE_PLUS_SINGLE,
            Nature.QUADRUPLE_ROOT,
        )

    def test_real_counts_and_repeats_by_code(self):
        assert REAL_COUNT_BY_CODE.dtype == np.int8
        assert REAL_COUNT_BY_CODE.tolist() == [0, 2, 2, 4, 4, 4, 4, 4]
        assert REPEATED_BY_CODE.dtype == np.int8
        assert REPEATED_BY_CODE.tolist() == [0, 1, 0, 0, 1, 1, 1, 1]


class TestClassifyBatch:
    def test_matches_scalar_on_random_samples(self, rng):
        _assert_scalar_equals_batch(rng.uniform(-10, 10, size=(4, 2000)))

    def test_matches_scalar_on_syntheses_of_every_nature(self):
        quartics = [synthesize(NatureTarget(nature, a=a, strategy="random", seed=seed))
                    for nature in Nature for a in (-3.0, 0.5, 2.0) for seed in range(4)]
        abcd = np.array([[q.a, q.b, q.c, q.d] for q in quartics]).T
        natures, _ = classify_nature_batch(*abcd)
        assert {NATURE_BY_CODE[k] for k in natures} == set(Nature)
        _assert_scalar_equals_batch(abcd)

    def test_matches_scalar_and_exact_on_integer_grid(self):
        grid = _integer_grid()
        _assert_scalar_equals_batch(grid)
        cases, _ = classify_case_batch(*grid)
        for i in range(grid.shape[1]):
            exact = classify_quartic(Quartic(*(Fraction(int(v)) for v in grid[:, i])))
            assert CASE_BY_INDEX[cases[i]] is exact.case, grid[:, i]

    @settings(max_examples=200, deadline=None)
    @given(dyadic, dyadic, dyadic, dyadic, st.integers(-20, 20))
    def test_weighted_scaling_and_reflection_invariance(self, a, b, c, d, k):
        abcd = np.array([[a], [b], [c], [d]])
        base = _scalar(a, b, c, d)
        batch_base = classify_case_batch(*abcd)
        scaled = _scaled(abcd, 2.0 ** k)
        assert _scalar(*scaled[:, 0]) == base
        for got, want in zip(classify_case_batch(*scaled), batch_base):
            assert got.tobytes() == want.tobytes()
        assert _scalar(-a, b, -c, d)[0] is base[0]
        assert classify_case_batch(-abcd[0], abcd[1], -abcd[2], abcd[3])[0] == batch_base[0]

    def test_table_is_the_scalar_cascade(self):
        case_of, consulted, needed = _tables()
        assert set(case_of.tolist()) == set(range(len(CASE_BY_INDEX)))
        # some key with these first p digits consults predicate p
        asked_after = [np.zeros(3 ** p, dtype=bool) for p in range(9)]
        for key in range(3 ** 9):
            signs = [(key // 3 ** (8 - p)) % 3 - 1 for p in range(9)]
            asked = set()

            def sign(name):
                asked.add(_INDEX[name])
                return signs[_INDEX[name]]

            assert CASE_BY_INDEX[case_of[key]] is _cascade(sign)
            assert consulted[key] == sum(1 << p for p in asked)
            for p in asked:
                asked_after[p][key // 3 ** (9 - p)] = True
        assert len(needed) == 9
        for p in range(9):
            assert needed[p].dtype == bool
            assert needed[p].tolist() == asked_after[p].tolist(), p
        assert needed[0].all() and needed[1].all()  # every path asks b and c0
        for index, case in enumerate(CASE_BY_INDEX):
            assert NATURE_BY_CODE[NATURE_CODE_BY_CASE[index]] is _CASE_TO_NATURE[case][0]

    @pytest.mark.parametrize("lam", [1e40, 2.0 ** 100])
    def test_overflow_is_flagged_never_confident(self, rng, lam):
        abcd = rng.uniform(-10, 10, size=(4, 1000))
        codes, _ = classify_nature_batch(*abcd)
        scaled_codes, margins = classify_nature_batch(*_scaled(abcd, lam))
        assert not np.isnan(margins).any()
        assert (margins[scaled_codes != codes] < 10.0).all()

    @pytest.mark.parametrize("k", [88, 131, 175, 262])
    def test_matches_scalar_below_the_normal_range(self, rng, k):
        # weight-w predicates (w = 12, 8, 6, 4) sum to subnormal values at 2^-k
        abcd = _scaled(rng.uniform(-10, 10, size=(4, 300)), 2.0 ** -k)
        _assert_scalar_equals_batch(abcd)

    def test_boundary_cases_coded(self):
        a = np.array([4.0, 0.0, 0.0, 3.0])
        b = np.array([6.0, -2.0, -6.0, 2.0])
        c = np.array([4.0, 0.0, 8.0, -1.0])
        d = np.array([1.0, 1.0, -3.0, -0.95])
        codes, margins = classify_nature_batch(a, b, c, d)
        natures = [NATURE_BY_CODE[k].value for k in codes]
        assert natures == ["quadruple_root", "two_double_pairs",
                           "triple_plus_single", "four_distinct_real"]
        assert margins[:3].min() == 0.0
        assert margins[3] > 10.0

    def test_four_floats_give_the_scalar_verdict(self):
        cls = classify_quartic(Quartic(3.0, 2.0, -1.0, -0.95))
        case, case_margin = classify_case_batch(3.0, 2.0, -1.0, -0.95)
        code, margin = classify_nature_batch(3.0, 2.0, -1.0, -0.95)
        for got in (case, case_margin, code, margin):
            assert isinstance(got, np.ndarray) and got.shape == ()
        assert CASE_BY_INDEX[case] is cls.case
        assert NATURE_BY_CODE[code] is cls.nature is Nature.FOUR_DISTINCT_REAL
        assert float(margin).hex() == float(case_margin).hex() == _scalar(3.0, 2.0, -1.0, -0.95)[1].hex()

    def test_scalars_broadcast_against_arrays(self, rng):
        b, c, d = rng.uniform(-10, 10, size=(3, 50))
        full = classify_nature_batch(np.full(50, 3.0), b, c, d)
        for got, want in zip(classify_nature_batch(3.0, b, c, d), full):
            assert _same_bits(got, want)
        grid = rng.uniform(-10, 10, size=(4, 6, 5))
        for fn in (classify_case_batch, classify_nature_batch):
            flat = fn(*grid.reshape(4, -1))
            for got, want in zip(fn(*grid), flat):
                assert got.shape == (6, 5)
                assert _same_bits(got.ravel(), want)

    def test_unbroadcastable_shapes_raise(self):
        with pytest.raises(ValueError):
            classify_nature_batch(np.zeros(3), np.zeros(4), 0.0, 0.0)

    def test_margin_reflects_distance_to_boundary(self):
        a = np.array([3.0, 3.0])
        b = np.array([2.0, 2.0])
        c = np.array([-1.0, -1.0])
        d = np.array([-0.95, -0.928765808075677])  # interior vs on d2
        _, margins = classify_nature_batch(a, b, c, d)
        assert margins[0] > 1e4
        assert margins[1] < 10.0


def _uniform(n):
    return np.random.default_rng(11).uniform(-10, 10, size=(4, n))


def _non_finite_rows():
    """Uniform rows with NaN, inf or -inf in one coefficient or in all four."""
    abcd = _uniform(200)
    for i, bad in enumerate([np.nan, np.inf, -np.inf] * 10):
        abcd[i % 4, 6 * i] = bad
        abcd[:, 6 * i + 3] = bad
    return abcd


#: (name, coefficient arguments of classify_case_batch)
PATH_INPUTS = (
    [("uniform", lambda: tuple(_uniform(1 << 15))),
     ("integer_grid", lambda: tuple(_integer_grid()))]
    + [(f"scaled_2^{k}", lambda k=k: tuple(_scaled(_uniform(2000), 2.0 ** k)))
       for k in (30, -30, 60, -60, 84, -84, 90, -90, 100, -100)]
    + [(f"subnormal_2^-{k}", lambda k=k: tuple(_scaled(_uniform(300), 2.0 ** -k)))
       for k in (88, 131, 175, 262)]
    + [("non_finite", lambda: tuple(_non_finite_rows())),
       ("zero_d", lambda: (3.0, 2.0, -1.0, -0.95)),
       ("broadcast", lambda: (3.0, *_uniform(30).reshape(4, 6, 5)[1:])),
       ("empty", lambda: tuple(np.zeros((4, 0))))]
)


class TestPathPredicates:
    """Each predicate runs only on the rows whose path can consult it."""

    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("make", [m for _, m in PATH_INPUTS],
                             ids=[name for name, _ in PATH_INPUTS])
    def test_equals_evaluating_all_nine(self, monkeypatch, make, block_rows):
        abcd = make()
        if block_rows is not None:
            monkeypatch.setattr(batch, "BLOCK_ROWS", block_rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes either way
            got = classify_case_batch(*abcd)
            monkeypatch.setattr(batch, "_classify_block", _reference_classify_block)
            want = classify_case_batch(*abcd)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and _same_bits(g, w)

    def _rows_seen(self, monkeypatch):
        """Per predicate, the (a, b, c, d) rows it is evaluated on."""
        seen = [[] for _ in batch._PREDICATES]

        def recorded(p, fn):
            def wrapper(q):
                seen[p].extend(zip(*(x.tolist() for x in q)))
                return fn(q)
            return wrapper

        monkeypatch.setattr(batch, "_PREDICATES", tuple(
            recorded(p, fn) for p, fn in enumerate(batch._PREDICATES)))
        return seen

    def test_uniform_rows_reach_only_their_predicates(self, monkeypatch):
        abcd = _uniform(1 << 13)
        mask = _consulted(abcd)
        seen = self._rows_seen(monkeypatch)
        classify_case_batch(*abcd)
        rows = list(zip(*(x.tolist() for x in abcd)))
        for name in ("d_vs_a4_over_256", "d_vs_d_tilde", "d_vs_d_dagger"):
            assert seen[_INDEX[name]] == [], name
        for name in ("b_vs_3a2_over_8", "c_vs_C0"):
            assert seen[_INDEX[name]] == rows, name
        for name in ("disc_d_slope", "disc_d_curvature"):
            p = _INDEX[name]
            want = [row for row, m in zip(rows, mask) if m & (1 << p)]
            assert 0 < len(want) < len(rows)
            assert seen[p] == want, name

    def test_a_predicate_run_but_not_consulted_leaves_the_margin(self, monkeypatch):
        # c = C0 within tolerance and d > d_dagger: the path asks d_vs_d_dagger
        # and stops, but d_vs_d_dagger comes after d_vs_d_tilde in key order,
        # so the prefix table still sends the row to d_vs_d_tilde
        abcd = np.array([[1.0], [-1.0], [-0.625 + 1e-10], [2.0]])
        tilde = _INDEX["d_vs_d_tilde"]
        assert not _consulted(abcd)[0] & (1 << tilde)
        want = classify_case_batch(*abcd)
        assert CASE_BY_INDEX[want[0][0]] is ClassificationCase.XXV
        assert 0.0 < want[1][0] < 1.0  # the c_vs_C0 margin
        ran = []

        def zero(q):  # a sum of zero: sign 0 and margin 0, were it counted
            ran.append(len(q.a))
            return (np.zeros_like(q.a),)

        predicates = list(batch._PREDICATES)
        predicates[tilde] = zero
        monkeypatch.setattr(batch, "_PREDICATES", tuple(predicates))
        for got, w in zip(classify_case_batch(*abcd), want):
            assert _same_bits(got, w)
        assert ran == [1]

    def test_every_consulted_predicate_runs_on_the_integer_grid(self, monkeypatch):
        grid = _integer_grid()
        mask = _consulted(grid)
        seen = self._rows_seen(monkeypatch)
        classify_case_batch(*grid)
        seen = [set(rows) for rows in seen]
        for row, m in zip(zip(*(x.tolist() for x in grid)), mask):
            for p in range(len(seen)):
                if m & (1 << p):
                    assert row in seen[p], (row, p)
        assert all(seen)  # the grid reaches every predicate


class TestAberthBatch:
    def test_matches_scalar_oracle(self, rng):
        n = 200
        trailing = rng.uniform(-10, 10, size=(n, 4))
        roots = aberth_roots_batch(trailing)
        for i in range(0, n, 20):
            remaining = list(roots[i])
            for z in all_roots([1.0, *trailing[i]]):
                nearest = min(remaining, key=lambda w: abs(w - z))
                assert abs(nearest - z) < 1e-8 * (1.0 + abs(z))
                remaining.remove(nearest)

    def test_real_count(self, rng):
        trailing = np.array([
            [3.0, 2.0, -1.0, -0.95],   # four real
            [0.0, 0.0, 0.0, 1.0],      # none
            [0.0, 0.0, 0.0, -1.0],     # two
        ])
        roots = aberth_roots_batch(trailing)
        assert list(real_root_count_batch(roots)) == [4, 0, 2]

    def test_min_gap(self):
        trailing = np.array([[0.0, -2.0, 0.0, 1.0]])  # (x^2-1)^2
        roots = aberth_roots_batch(trailing)
        assert min_root_gap_batch(roots)[0] < 1e-6

    @pytest.mark.parametrize("max_iter", [120, 3])
    @pytest.mark.parametrize("lam", [2.0 ** -20, 1.0, 2.0 ** 20])
    def test_matches_tensor_reference(self, rng, lam, max_iter, monkeypatch):
        trailing = _scaled(rng.uniform(-10, 10, size=(4, 2000)), lam).T
        if max_iter == 3:
            trailing = np.concatenate([trailing, MULTIPLE_ROOTS])
        monkeypatch.setattr(batch, "MAX_ITERATIONS", max_iter)
        roots = aberth_roots_batch(trailing)
        ref = _tensor_aberth(trailing, max_iter=max_iter, start=batch._start(trailing).T)
        assert (real_root_count_batch(roots) == real_root_count_batch(ref)).all()
        assert (_repeated(roots) == _repeated(ref)).all()
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(roots - ref) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("lam", [2.0 ** -20, 1.0, 2.0 ** 20])
    def test_matches_circle_started_reference(self, rng, lam):
        # the Ferrari start changes where each root starts, not where it ends
        trailing = _scaled(rng.uniform(-10, 10, size=(4, 2000)), lam).T
        roots = aberth_roots_batch(trailing)
        ref = _tensor_aberth(trailing)
        assert (real_root_count_batch(roots) == real_root_count_batch(ref)).all()
        assert (_repeated(roots) == _repeated(ref)).all()
        scale = np.abs(ref).max(axis=1)
        assert (_matched_gap(roots, ref) <= 1e-12 * scale).all()

    def test_fallback_rows_keep_the_circle_start(self, rng):
        trailing = np.concatenate([MULTIPLE_ROOTS, FERRARI_OVERFLOW])
        assert not np.isfinite(batch._ferrari_roots(FERRARI_OVERFLOW)).all()
        assert _same_bits(batch._start(trailing), batch._circle_start(trailing))
        if _sums_in_reproduced_order(rng):
            assert _same_bits(aberth_roots_batch(trailing), _tensor_aberth(trailing))

    def test_two_steps_certify_every_row(self, rng, monkeypatch):
        trailing = rng.uniform(-10, 10, size=(1 << 15, 4))
        full = aberth_roots_batch(trailing)
        monkeypatch.setattr(batch, "MAX_ITERATIONS", 2)
        assert _same_bits(aberth_roots_batch(trailing), full)

    @pytest.mark.parametrize("family", ["uniform", "biquadratic"])
    def test_one_step_certifies_every_row(self, rng, monkeypatch, family):
        if family == "uniform":
            trailing = rng.uniform(-10, 10, size=(1 << 15, 4))
        else:  # a = c = 0: the start solves a quadratic in x^2
            trailing = rng.uniform(-10, 10, size=(1 << 12, 4)) * [0.0, 1.0, 0.0, 1.0]
        full = aberth_roots_batch(trailing)
        monkeypatch.setattr(batch, "MAX_ITERATIONS", 1)
        assert _same_bits(aberth_roots_batch(trailing), full)

    def test_integer_grid_steps(self, monkeypatch):
        # many rows of the grid have multiple roots; the two equal roots of a
        # start quadratic are parted off the real axis, not sent to the circle
        trailing = _integer_grid().T
        stepped = _count_step_rows(monkeypatch)
        aberth_roots_batch(trailing)
        assert sum(stepped) / len(trailing) <= 1.444  # the complex-Cardano start's figure

    def test_biquadratic_with_huge_middle_coefficient(self):
        # x^4 + 1e60 x^2 + 1 = (x^2 + 1e60) (x^2 + 1e-60), to rounding
        trailing = np.array([[0.0, 1e60, 0.0, 1.0]])
        exact = np.array([1e30j, -1e30j, 1e-30j, -1e-30j])
        start = batch._start(trailing)[:, 0]
        assert _matched_gap(start[None, :], exact[None, :])[0] == 0.0
        assert batch._aberth_step(start[:, None].copy(), trailing.T)[0] < batch.CONVERGENCE_TOL
        roots = aberth_roots_batch(trailing)[0]
        assert np.isfinite(roots).all()
        gap = np.min([np.abs(roots[list(perm)] - exact) / np.abs(exact)
                      for perm in itertools.permutations(range(4))], axis=0)
        assert (gap <= 4 * np.finfo(float).eps).all()

    @pytest.mark.parametrize("family", ["uniform", "biquadratic", "planted", "double"])
    def test_ferrari_roots_match_scalar_oracle(self, rng, family):
        if family == "uniform":
            trailing = rng.uniform(-10, 10, size=(100, 4))
        elif family == "biquadratic":
            trailing = rng.uniform(-10, 10, size=(100, 4)) * [0.0, 1.0, 0.0, 1.0]
        elif family == "planted":  # four real roots, some close together
            trailing = _monic_from_roots(np.sort(rng.uniform(-3.0, 3.0, size=(100, 4)), axis=1))
        else:  # an exact double root: x (x - 1)^2 (x + 2) and the like
            trailing = _monic_from_roots(np.array([
                [0.0, 1.0, 1.0, -2.0], [-1.0, -1.0, 2.0, 3.0], [0.5, 0.5, -3.0, 4.0]]))
        start = batch._ferrari_roots(trailing).T
        ref = np.array([all_roots([1.0, *row]) for row in trailing])
        scale = 1.0 + np.abs(ref).max(axis=1)
        assert (_matched_gap(start, ref) <= 1e-8 * scale).all()

    def test_real_starts_leave_the_real_axis(self, monkeypatch):
        # two roots near +-sqrt(-b) and a close pair near 0: rounding puts
        # the pair on the real axis, which an iteration started there never
        # leaves, and the resolvent's top two roots nearly coincide, where
        # an unguarded Newton step throws the start far off
        trailing = np.array([
            [2.3736938641609568e-07, -4.6228360510272806e+05,
             -1.3598161967862541e-06, -2.3164676483738588e-07],
            [-6.0990379921556487e+03, -8.3202881791757405e+07,
             2.3054956720527273e-01, 2.0919141451181418e-04],
            [-1.6662677484478015e+00, -1.0970243331073434e+05,
             3.9118972489189180e-04, -2.8380502593249966e-08],
            [2.5451151166050800e-02, -7.3961544512353549e+06,
             -1.6342715181133332e+00, -1.7330521782173033e-05],
            [-1.5335239918976786e-07, -5.6242704456974845e+06,
             2.3704093132983376e-05, -4.7109596303138273e-07],
        ])
        assert (batch._start(trailing).imag != 0.0).all()
        stepped = _count_step_rows(monkeypatch)
        full = aberth_roots_batch(trailing)
        assert len(stepped) < batch.MAX_ITERATIONS  # every row was certified
        monkeypatch.setattr(batch, "MAX_ITERATIONS", 1)
        assert _same_bits(aberth_roots_batch(trailing[2:3]), full[2:3])

    @pytest.mark.parametrize("k", [-40, 30, 40, 60])
    def test_four_real_roots_survive_weighted_scaling(self, rng, k):
        # the circle's radius grows like 2^4k while the roots grow like 2^k
        planted = np.sort(rng.uniform(-3.0, 3.0, size=(4000, 4)), axis=1)
        planted = planted[np.diff(planted, axis=1).min(axis=1) >= 0.1]
        trailing = _scaled(_monic_from_roots(planted).T, 2.0 ** k).T
        roots = aberth_roots_batch(trailing)
        assert len(trailing) > 500
        assert (real_root_count_batch(roots) == 4).all()

    def test_multiple_roots_match_tensor_reference(self, rng):
        roots = aberth_roots_batch(MULTIPLE_ROOTS)
        ref = _tensor_aberth(MULTIPLE_ROOTS)
        # a summation order other than numpy's moves an m-fold root by about
        # eps^(1/m): 2e-4 at (x - 1)^4, enough to change its real count
        for got in (roots, ref):
            for row, exact, tol in zip(got, EXACT_ROOTS, (1e-9, 1e-2, 1e-6)):
                assert np.allclose(np.sort_complex(row), exact, rtol=0, atol=tol)
        if _sums_in_reproduced_order(rng):
            assert _same_bits(roots, ref)

    def test_each_row_as_if_alone(self, rng):
        trailing = np.concatenate([
            rng.uniform(-10, 10, size=(40, 4)),
            _scaled(rng.uniform(-10, 10, size=(4, 20)), 2.0 ** -20).T,
            MULTIPLE_ROOTS,
        ])
        order = rng.permutation(len(trailing))
        together = aberth_roots_batch(trailing[order])
        for pos, i in enumerate(order):
            assert _same_bits(together[pos], aberth_roots_batch(trailing[i:i + 1])[0]), i

    def test_memory_grows_with_n_times_degree(self, rng):
        n = 1 << 14
        trailing = rng.uniform(-10, 10, size=(n, 4))
        tracemalloc.start()
        try:
            aberth_roots_batch(trailing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensor = n * 4 * 4 * 16  # one N x 4 x 4 complex128 array
        # the N x 4 roots, their working copy and the inverse sums stay near
        # 1.2 tensors; the tensor iteration peaked above 6
        assert peak < 2 * tensor

    def test_inverse_sums_equal_tensor_sums(self, rng):
        z = rng.standard_normal((300, 4)) + 1j * rng.standard_normal((300, 4))
        z[:100, 1] = z[:100, 0]  # a zero difference reads as 1e-300 both ways
        z[50:150, 3] = z[50:150, 2]
        diff = z[:, :, None] - z[:, None, :]
        diff[:, np.arange(4), np.arange(4)] = 1.0
        inv = 1.0 / np.where(diff == 0, 1e-300, diff)
        inv[:, np.arange(4), np.arange(4)] = 0.0
        ref = inv.sum(axis=2)
        got = _inverse_row_sums(np.ascontiguousarray(z.T)).T
        assert np.allclose(got, ref, rtol=1e-12, atol=0)
        if _sums_in_reproduced_order(rng):
            assert _same_bits(np.ascontiguousarray(got), ref)

    def test_real_count_equals_reference(self, rng):
        roots = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
        roots.imag[:, 1:][rng.random((500, 3)) < 0.3] = 0.0
        # |Im z| exactly at REAL_TOL (1 + max|z|), and one float above it
        roots[:100, 0] = 3.0 + 4.0j
        roots[:100, 3] = 1.0 + 1.0j
        edge = REAL_TOL * (1.0 + 5.0)
        roots[:100, 1] = 0.5 + 1j * edge
        roots[:50, 2] = -0.25 - 1j * edge
        roots[50:100, 2] = 1.0 + 1j * np.nextafter(edge, 1.0)
        roots[100] = np.nan
        roots[101, 3] = complex(0.0, np.nan)
        got = real_root_count_batch(roots)
        assert _same_bits(got, _reference_real_root_count(roots))
        assert (got[:50] == 2).all() and (got[50:100] == 1).all() and got[100] == 0
        empty = np.empty((0, 4), dtype=np.complex128)
        assert _same_bits(real_root_count_batch(empty), _reference_real_root_count(empty))

    def test_min_gap_equals_tensor_reference(self, rng):
        roots = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
        roots[:50, 1] = roots[:50, 3]  # exact repeats
        roots[50:60, 2] = np.nan
        assert _same_bits(min_root_gap_batch(roots), _tensor_min_gap(roots))

    def test_brute_discriminant(self, rng):
        n = 100
        trailing = rng.uniform(-5, 5, size=(n, 4))
        roots = aberth_roots_batch(trailing)
        brute = brute_discriminant_batch(roots)
        for i in range(n):
            closed = discriminant_quartic(Quartic(*trailing[i]))
            assert brute[i] == pytest.approx(closed, rel=1e-7, abs=1e-5)


def _block_rows():
    """3 blocks of 7 rows and a last block of one, with the multiple-root rows."""
    rng = np.random.default_rng(7)
    return np.concatenate([rng.uniform(-10, 10, size=(19, 4)), MULTIPLE_ROOTS])


def _sweep_results(trailing):
    """Roots, cases and margins, nature codes and margins of the rows of trailing."""
    return (aberth_roots_batch(trailing), *classify_case_batch(*trailing.T),
            *classify_nature_batch(*trailing.T))


class TestBlocks:
    def test_blocks_change_no_bit(self, monkeypatch):
        trailing = _block_rows()
        monkeypatch.setattr(batch, "BLOCK_ROWS", 1 << 20)
        whole = _sweep_results(trailing)
        monkeypatch.setattr(batch, "BLOCK_ROWS", 7)
        blocked = _sweep_results(trailing)
        for got, want in zip(blocked, whole):
            assert _same_bits(got, want)
        for i in range(len(trailing)):
            alone = _sweep_results(trailing[i:i + 1])
            for got, want in zip(alone, blocked):
                assert _same_bits(got[0], want[i]), i

    def test_blocks_change_no_bit_at_sweep_size(self, rng, monkeypatch):
        trailing = rng.uniform(-10, 10, size=(1 << 15, 4))
        monkeypatch.setattr(batch, "BLOCK_ROWS", 1 << 20)
        whole = _sweep_results(trailing)
        monkeypatch.setattr(batch, "BLOCK_ROWS", 1 << 12)
        for got, want in zip(_sweep_results(trailing), whole):
            assert _same_bits(got, want)

    def test_memory_beyond_the_roots_is_bounded_by_a_block(self, rng):
        n, degree = 8 * batch.BLOCK_ROWS, 4
        trailing = rng.uniform(-10, 10, size=(n, degree))
        tracemalloc.start()
        try:
            aberth_roots_batch(trailing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        roots = n * degree * 16  # the N x 4 complex128 output
        block = batch.BLOCK_ROWS * degree * 16
        # a block's working arrays peak near 5 blocks of roots; the whole
        # iteration at once peaked near 28 at this n, and grew with n
        assert peak < roots + 8 * block

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_before_iterating(self, monkeypatch, bad):
        monkeypatch.setattr(batch, "BLOCK_ROWS", 7)
        trailing = _block_rows()
        trailing[16, 2] = bad
        trailing[20, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from an iteration
            with pytest.raises(ValueError, match="row 16"):
                aberth_roots_batch(trailing)

    def test_empty_input(self):
        assert aberth_roots_batch(np.zeros((0, 4))).shape == (0, 4)
        codes, margins = classify_nature_batch(*np.zeros((4, 0)))
        assert codes.shape == margins.shape == (0,)


class TestAgreement:
    def test_real_count_agreement_sweep(self, rng):
        n = 50000
        a, b, c, d = rng.uniform(-10, 10, size=(4, n))
        codes, margins = classify_nature_batch(a, b, c, d)
        roots = aberth_roots_batch(np.stack([a, b, c, d], axis=1))
        counts = real_root_count_batch(roots)
        agree = REAL_COUNT_BY_CODE[codes] == counts
        solid = margins > 10.0
        assert agree[solid].all()
        assert agree.mean() > 0.999
