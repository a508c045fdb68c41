"""Vectorized quartic classification and root finding.

``classify_case_batch`` evaluates the nine sign predicates of
:mod:`polyclass.quartic` on float64 arrays, through the very term functions
the scalar classifier sums, and looks each sample's sign vector up in a
table built by walking the scalar decision tree once.  Case, nature and
minimum margin therefore equal the scalar verdict bit for bit.  The Aberth
helpers mirror :mod:`polyclass.oracle` for million-sample agreement sweeps.
``aberth_roots_batch`` iterates only on the polynomials that have not
converged, kept as compact arrays, and forms each pair's 1/(z_i - z_j)
once: its work grows with N x degree, never N x degree^2.

Both the iteration and the classifier work through their rows one block
of ``BLOCK_ROWS`` at a time, so a block's temporaries stay in cache and
memory beyond the N x degree output does not grow with N.  Every operation
is elementwise per polynomial and each polynomial stops on its own
convergence test, so results do not depend on the block size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .numeric import DEFAULT_EPS, MIN_NORMAL
from .quartic import (
    _CASE_TO_NATURE,
    _ON_COEFFS,
    _ZERO_DISC_NATURES,
    NATURE_STRUCTURE,
    ClassificationCase,
    Nature,
    _Coeffs,
    _cascade,
)

#: nature of each code, in the enum's declaration order
NATURE_BY_CODE: Tuple[Nature, ...] = tuple(Nature)
CODE_BY_NATURE = {n: i for i, n in enumerate(NATURE_BY_CODE)}
#: case index (as returned by classify_case_batch) -> case
CASE_BY_INDEX: Tuple[ClassificationCase, ...] = tuple(ClassificationCase)

#: real-root count implied by each nature code
REAL_COUNT_BY_CODE = np.array([NATURE_STRUCTURE[n][0] for n in NATURE_BY_CODE], dtype=np.int8)
#: 1 where the nature implies a repeated real root
REPEATED_BY_CODE = np.array([n in _ZERO_DISC_NATURES for n in NATURE_BY_CODE], dtype=np.int8)
#: nature code of each case index
NATURE_CODE_BY_CASE = np.array(
    [CODE_BY_NATURE[_CASE_TO_NATURE[case][0]] for case in CASE_BY_INDEX], dtype=np.int8)

#: the nine predicates in key order: one term function each
_PREDICATES = tuple(dict.fromkeys(_ON_COEFFS.values()))
#: comparison name -> predicate index (both discriminant names read one predicate)
_INDEX = {name: _PREDICATES.index(fn) for name, fn in _ON_COEFFS.items()}
_N = len(_PREDICATES)


def _leaves():
    """Every root-to-leaf path of the cascade: ({predicate index: sign}, case)."""
    out, todo = [], [{}]
    while todo:
        fixed = todo.pop()
        try:
            out.append((fixed, _cascade(lambda name: fixed[_INDEX[name]])))
        except KeyError as unfixed:  # the path asks a predicate not fixed yet
            todo.extend({**fixed, unfixed.args[0]: s} for s in (-1, 0, 1))
    return out


@lru_cache(maxsize=None)
def _tables() -> Tuple[np.ndarray, np.ndarray]:
    """Case index and consulted-predicate bitmask for each of the 3^9 sign keys.

    Digit p of a key (weight 3^(8-p)) is 1 + the sign of predicate p; bit p
    of the mask is set when the sample's path consults predicate p.
    """
    case_of = np.full((3,) * _N, -1, dtype=np.int8)
    consulted = np.zeros((3,) * _N, dtype=np.int16)
    for fixed, case in _leaves():
        at = tuple(fixed[p] + 1 if p in fixed else slice(None) for p in range(_N))
        case_of[at] = CASE_BY_INDEX.index(case)
        consulted[at] = sum(1 << p for p in fixed)
    return case_of.ravel(), consulted.ravel()


def _sign_digit_and_margin(terms):
    """1 + sign and |margin| (tolerance units) of one predicate, as the scalar test.

    A sum that overflowed (or a NaN input) reads as an exact zero: sign 0
    and margin 0, so the sample lands inside the fragile shell.
    """
    value = terms[0].copy()
    scale = np.abs(terms[0])
    for t in terms[1:]:
        value += t
        np.maximum(scale, np.abs(t), out=scale)
    overflow = ~np.isfinite(value)  # a non-finite term makes the sum non-finite
    value[overflow] = 0.0
    scale[overflow] = 0.0
    denom = DEFAULT_EPS * np.maximum(scale, MIN_NORMAL)
    margin = np.abs(value) / denom
    margin[value == 0.0] = 0.0
    digit = (value >= -denom).astype(np.intp)
    digit += value > denom
    return digit, margin


def _classify_block(q: _Coeffs) -> Tuple[np.ndarray, np.ndarray]:
    """Case index and minimum margin of each sample of the 1-D arrays q."""
    case_of, consulted = _tables()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        key = np.zeros(q.a.shape, dtype=np.intp)
        margins = []
        for fn in _PREDICATES:  # q builds the d-cubic once, for the first predicate on it
            digit, margin = _sign_digit_and_margin(fn(q))
            key *= 3
            key += digit
            margins.append(margin)
    mask = consulted[key]
    min_margin = np.full(key.shape, np.inf)
    for p, margin in enumerate(margins):
        np.minimum(min_margin, margin, out=min_margin,
                   where=(mask & (1 << p)) != 0)
    return case_of[key], min_margin


def _classify(a, b, c, d) -> Tuple[np.ndarray, np.ndarray]:
    """Case indices and minimum margins in the broadcast shape of a, b, c, d.

    The samples run BLOCK_ROWS at a time; each sample's verdict depends on
    its own coefficients alone, so the block size changes no bit.
    """
    coeffs = [np.asarray(x, dtype=np.float64) for x in (a, b, c, d)]
    shape = coeffs[0].shape
    if any(x.shape != shape for x in coeffs):  # broadcast_arrays costs ~10 us a call
        coeffs = np.broadcast_arrays(*coeffs)
        shape = coeffs[0].shape
    flat = [x.reshape(-1) for x in coeffs]
    n = flat[0].size
    case = np.empty(n, dtype=np.int8)
    min_margin = np.empty(n)
    for lo in range(0, n, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        case[rows], min_margin[rows] = _classify_block(_Coeffs(*(x[rows] for x in flat)))
    return case.reshape(shape), min_margin.reshape(shape)


def classify_case_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                        d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Case indices (into CASE_BY_INDEX) plus the smallest decision margin.

    The margin, in tolerance units, is the minimum of |margin| over the
    comparisons the scalar cascade consults on the sample's path; samples
    below 10 are boundary-fragile.  A comparison that overflows float64
    counts as zero with margin 0.
    """
    return _classify(a, b, c, d)


def classify_nature_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                          d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nature codes (into NATURE_BY_CODE) plus the smallest decision margin.

    The same verdict as classify_case_batch, with each case mapped to its
    nature.
    """
    case, min_margin = _classify(a, b, c, d)
    # asarray: a 0-d case would index out a numpy scalar, not a 0-d array
    return np.asarray(NATURE_CODE_BY_CASE[case]), min_margin


def _numpy_order_sum(terms):
    """Sum arrays in the order numpy's pairwise ``sum`` adds a short axis.

    From four terms on, four running sums take the terms in blocks of four
    and fold as (s0 + s1) + (s2 + s3); the remaining terms add on in turn,
    left to right.
    """
    total, stop = 0.0, 0
    if len(terms) >= 4:
        stop = len(terms) - len(terms) % 4
        s = terms[:4]
        for i in range(4, stop, 4):
            s = [a + b for a, b in zip(s, terms[i:i + 4])]
        total = (s[0] + s[1]) + (s[2] + s[3])
    for t in terms[stop:]:
        total = total + t
    return total


def _inverse_row_sums(z: np.ndarray) -> np.ndarray:
    """sum over j != i of 1/(z_i - z_j), for each root row i of z (degree, m).

    Each pair's reciprocal x is formed once; the (j, i) term is -x, or x
    where z_i == z_j, since a zero difference reads as 1e-300 both ways.
    With the diagonal as 0 and numpy's summation order, each sum equals
    numpy's ``sum`` over a row of the full difference tensor.
    """
    degree = len(z)
    out = np.empty_like(z)
    pairs = {}  # (i, j), i < j -> x and where z_i != z_j, until row j negates x
    for i in range(degree):
        terms = []
        for j in range(degree):
            if j < i:
                x, nonzero = pairs.pop((j, i))
                t = np.negative(x, out=x, where=nonzero)
            elif j > i:
                t = z[i] - z[j]
                zero = t == 0
                nonzero = True
                if zero.any():
                    t[zero] = 1e-300
                    nonzero = ~zero
                pairs[i, j] = np.divide(1.0, t, out=t), nonzero
            else:
                t = 0.0  # the diagonal
            terms.append(t)
        out[i] = _numpy_order_sum(terms)
    return out


def _aberth_step(z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Move the roots z (degree, m) one Aberth step, in place.

    c (degree, m) holds the trailing coefficients of the m monic
    polynomials.  Returns each polynomial's largest step relative to
    1 + |z|.  Products go to fresh arrays: numpy's complex multiply rounds
    differently when its output overlaps an input of length one.
    """
    w = _inverse_row_sums(z)
    step = np.zeros(z.shape[1])
    for zk, wk in zip(z, w):  # one root of every polynomial at a time
        p = np.ones_like(zk)
        dp = np.zeros_like(zk)
        for ck in c:  # Horner: p and p'
            dp = dp * zk + p
            p = p * zk + ck
        dp[dp == 0] = 1e-300
        ratio = np.divide(p, dp, out=p)
        denom = 1.0 - ratio * wk
        denom[denom == 0] = 1.0
        np.divide(ratio, denom, out=wk)
        zk -= wk
        scale = np.abs(zk)
        scale += 1.0
        rel = np.abs(wk)
        rel /= scale
        np.maximum(step, rel, out=step)
    return step


#: the sweep's settings, read at call time
MAX_ITERATIONS = 120
CONVERGENCE_TOL = 1e-12  # a polynomial stops at its first relative step below this
REAL_TOL = 1e-6  # a root is real when |Im z| <= REAL_TOL * (1 + max|z|)
#: rows per block of the Aberth iteration and of the classifier: a block's
#: complex temporaries stay in a core's L2 cache
BLOCK_ROWS = 1 << 13


def _aberth_block(trailing: np.ndarray, roots: np.ndarray) -> None:
    """Iterate on the rows of trailing (m, degree); write their roots into roots."""
    n_poly, degree = trailing.shape
    radius = 1.0 + np.abs(trailing).max(axis=1)
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    z = radius[None, :] * np.exp(1j * angles)[:, None]  # z[k, n]: root k of polynomial n
    ca, idx = trailing.T, np.arange(n_poly)  # the unconverged polynomials
    for _ in range(MAX_ITERATIONS):
        done = _aberth_step(z, ca) < CONVERGENCE_TOL
        if done.any():
            roots[idx[done]] = z[:, done].T
            keep = ~done
            idx, z, ca = idx[keep], z[:, keep], ca[:, keep]
            if not idx.size:
                break
    roots[idx] = z.T


def aberth_roots_batch(trailing: np.ndarray) -> np.ndarray:
    """All complex roots of many monic polynomials at once.

    ``trailing`` has shape (N, degree): the coefficients after the leading 1,
    descending.  Returns shape (N, degree) complex roots (unordered).  A
    polynomial's roots are those of the same iteration run on it alone.
    Raises ValueError when a coefficient is NaN or infinite.
    """
    trailing = np.asarray(trailing, dtype=np.float64)
    n_poly, degree = trailing.shape
    # min and max carry any NaN or inf, and make no N-sized temporary
    if trailing.size and not np.isfinite([trailing.min(), trailing.max()]).all():
        row = int(np.flatnonzero(~np.isfinite(trailing).all(axis=1))[0])
        raise ValueError(f"coefficients must be finite, got {trailing[row].tolist()!r} in row {row}")
    roots = np.empty((n_poly, degree), dtype=np.complex128)
    for lo in range(0, n_poly, BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        _aberth_block(trailing[rows], roots[rows])
    return roots


def real_root_count_batch(roots: np.ndarray) -> np.ndarray:
    """Number of (numerically) real roots per polynomial."""
    scale = 1.0 + np.abs(roots).max(axis=1)
    return (np.abs(roots.imag) <= REAL_TOL * scale[:, None]).sum(axis=1).astype(np.int8)


def min_root_gap_batch(roots: np.ndarray) -> np.ndarray:
    """Smallest pairwise distance between roots, per polynomial."""
    gap = np.full(roots.shape[0], np.inf)
    degree = roots.shape[1]
    for i in range(degree):
        for j in range(i + 1, degree):
            np.minimum(gap, np.abs(roots[:, i] - roots[:, j]), out=gap)
    return gap


def brute_discriminant_batch(roots: np.ndarray) -> np.ndarray:
    """prod_{i<j} (x_i - x_j)^2 per polynomial, from root arrays."""
    degree = roots.shape[1]
    prod = np.ones(roots.shape[0], dtype=np.complex128)
    for i in range(degree):
        for j in range(i + 1, degree):
            diff = roots[:, i] - roots[:, j]
            prod *= diff * diff
    return prod.real
