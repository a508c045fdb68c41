"""Vectorized classifier and root finder against their scalar references."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclass import (
    Nature,
    NatureTarget,
    Quartic,
    classify_quartic,
    discriminant_quartic,
    synthesize,
)
from polyclass import batch
from polyclass.batch import (
    CASE_BY_INDEX,
    NATURE_BY_CODE,
    NATURE_CODE_BY_CASE,
    REAL_COUNT_BY_CODE,
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
from polyclass.quartic import _CASE_TO_NATURE, _cascade


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


def _tensor_aberth(trailing, max_iter=120, tol=1e-12):
    """The earlier batch Aberth iteration, kept as a reference.

    Every step gathers the active rows, sums an N x d x d tensor of
    1/(z_i - z_j) with numpy's ``sum`` and scatters the rows back.
    """
    n_poly, degree = trailing.shape
    radius = 1.0 + np.abs(trailing).max(axis=1)
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius[:, None] * np.exp(1j * angles)[None, :]
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


def _repeated(roots):
    return min_root_gap_batch(roots) < 1e-6 * (1.0 + np.abs(roots).max(axis=1))


def _sums_in_reproduced_order(rng, degree=4):
    """Whether this numpy's ``sum`` over a short complex axis adds in the order
    ``aberth_roots_batch`` reproduces; only then are its roots the tensor
    iteration's bit for bit."""
    t = rng.standard_normal((1000, degree)) + 1j * rng.standard_normal((1000, degree))
    return np.array_equal(t.sum(axis=1), _numpy_order_sum(list(t.T)))


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


#: x^4 (all-zero trailing coefficients), (x - 1)^4 and (x^2 - 1)^2, with
#: their exact roots
MULTIPLE_ROOTS = np.array([[0.0, 0.0, 0.0, 0.0], [-4.0, 6.0, -4.0, 1.0], [0.0, -2.0, 0.0, 1.0]])
EXACT_ROOTS = [[0.0] * 4, [1.0] * 4, [-1.0, -1.0, 1.0, 1.0]]


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
        case_of, consulted = _tables()
        assert set(case_of.tolist()) == set(range(len(CASE_BY_INDEX)))
        for key in range(3 ** 9):
            signs = [(key // 3 ** (8 - p)) % 3 - 1 for p in range(9)]
            asked = set()

            def sign(name):
                asked.add(_INDEX[name])
                return signs[_INDEX[name]]

            assert CASE_BY_INDEX[case_of[key]] is _cascade(sign)
            assert consulted[key] == sum(1 << p for p in asked)
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


class TestAberthBatch:
    def test_matches_scalar_oracle(self, rng):
        from polyclass import all_roots

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
        ref = _tensor_aberth(trailing, max_iter=max_iter)
        assert (real_root_count_batch(roots) == real_root_count_batch(ref)).all()
        assert (_repeated(roots) == _repeated(ref)).all()
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(roots - ref) <= 1e-12 * scale).all()

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
