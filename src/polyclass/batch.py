"""Vectorized quartic classification and root finding.

``classify_case_batch`` evaluates the sign predicates of
:mod:`polyclass.quartic` on float64 arrays, through the very term functions
the scalar classifier sums, and looks each sample's sign vector up in a
table built by walking the scalar decision tree once.  Each predicate runs
only on the rows whose path so far can consult it, so a row pays for the
sign tests of its own path, not for all nine.  Case, nature and
minimum margin therefore equal the scalar verdict bit for bit.  The Aberth
helpers mirror :mod:`polyclass.oracle` for million-sample agreement sweeps.
``aberth_roots_batch`` iterates only on the polynomials that have not
converged, kept as compact arrays, and forms each pair's 1/(z_i - z_j)
once: its work grows with N x degree, never N x degree^2.  Quartics start
from their Ferrari roots, so one step usually certifies them.  The start is
real float64 arithmetic up to the last two quadratics: the resolvent cubic's
largest root comes from Viete's trigonometric form or from Cardano with a
real cube root, polished by one Newton step, and a quartic in x^2 alone
after depressing is solved as a quadratic in x^2.  Real starting roots are
moved just off the real axis, which an iteration started on it never
leaves.  A quartic whose starting points hold a non-finite value or two
equal values, and any polynomial of another degree, starts on the circle
of radius 1 + max|coefficient|, as the scalar oracle does.  A polynomial
leaves the iteration only after a step below ``CONVERGENCE_TOL``, whatever
its start.

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
def _tables() -> Tuple[np.ndarray, np.ndarray, Tuple[np.ndarray, ...]]:
    """Case index and consulted-predicate bitmask for each of the 3^9 sign keys,
    and for each predicate p the prefix table of the keys' first p digits.

    Digit p of a key (weight 3^(8-p)) is 1 + the sign of predicate p; bit p
    of the mask is set when the sample's path consults predicate p.  Entry k
    of prefix table p is True when some key whose first p digits form k
    consults predicate p; the table is read off the masks, and like them is
    built on first use, not at import.
    """
    case_of = np.full((3,) * _N, -1, dtype=np.int8)
    consulted = np.zeros((3,) * _N, dtype=np.int16)
    for fixed, case in _leaves():
        at = tuple(fixed[p] + 1 if p in fixed else slice(None) for p in range(_N))
        case_of[at] = CASE_BY_INDEX.index(case)
        consulted[at] = sum(1 << p for p in fixed)
    consulted = consulted.ravel()
    needed = tuple(((consulted.reshape(3 ** p, -1) >> p) & 1).any(axis=1) for p in range(_N))
    return case_of.ravel(), consulted, needed


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
    """Case index and minimum margin of each sample of the 1-D arrays q.

    The predicates run in key order, each only on the rows whose key so far
    leads to a path that can consult it: on the whole block when every row
    can, on a gathered copy of those rows when some can, not at all when
    none can.  A row that skips a predicate takes digit 0 for it, which its
    path never reads, so case and margin are those of evaluating all nine.
    The margin still reads the consulted mask: on the c = C0 path the cascade
    asks d_vs_d_dagger before d_vs_d_tilde, which comes first in key order,
    so a row can run d_vs_d_tilde that its path then does not ask.
    """
    case_of, consulted, needed = _tables()
    key = np.zeros(q.a.shape, dtype=np.intp)
    evaluated = []  # (predicate index, rows it ran on, their margins)
    rows = slice(None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for p, fn in enumerate(_PREDICATES):
            need = needed[p][key]
            key *= 3
            count = np.count_nonzero(need)
            # q, or a gathered copy, builds the d-cubic once for both predicates on it
            if count == len(key):
                rows, at = slice(None), q
            elif count:
                found = np.flatnonzero(need)
                if not np.array_equal(found, rows):  # slope and curvature share one copy
                    rows, at = found, _Coeffs(*(x[found] for x in q))
            else:
                continue
            digit, margin = _sign_digit_and_margin(fn(at))
            key[rows] += digit
            evaluated.append((p, rows, margin))
    mask = consulted[key]
    min_margin = np.full(key.shape, np.inf)
    for p, rows, margin in evaluated:
        least = min_margin[rows]
        np.minimum(least, margin, out=least, where=(mask[rows] & (1 << p)) != 0)
        min_margin[rows] = least
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


def _circle_start(trailing: np.ndarray) -> np.ndarray:
    """Points on the circle of radius 1 + max|coefficient|, shape (degree, m)."""
    degree = trailing.shape[1]
    radius = 1.0 + np.abs(trailing).max(axis=1)
    angles = 2.0 * np.pi * np.arange(degree) / degree + 0.4
    return radius[None, :] * np.exp(1j * angles)[:, None]


def _largest_resolvent_root(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Largest real root u >= 0 of u^3 + 2p u^2 + (p^2 - 4r) u - q^2.

    Viete's trigonometric form where the resolvent has three real roots,
    Cardano with a real cube root where it has one, then one safeguarded
    Newton step on the resolvent itself.  The resolvent is -q^2 <= 0 at
    u = 0, so its largest root is not negative, and rounding below 0 is
    clamped.
    """
    # u = t - 2v, v = p/3, depresses it to t^3 - 3 m2 t + 2h
    v = p / 3.0
    qq = q * q
    m2 = v * v + 4.0 / 3.0 * r
    h = v * (4.0 * r - v * v) - 0.5 * qq
    disc = h * h - m2 * m2 * m2
    three = disc <= 0.0  # three real roots: then m2 >= 0
    one = ~three
    # Viete: t = 2m cos(arccos(-h / m^3) / 3), m = sqrt(m2)
    m = np.sqrt(m2, where=three, out=np.zeros_like(p))
    angle = -h / (m * m2)  # 0/0 at a triple root, which keeps the circle start
    np.clip(angle, -1.0, 1.0, out=angle)
    np.arccos(angle, out=angle, where=three)
    angle /= 3.0
    np.cos(angle, out=angle, where=three)
    t = 2.0 * m * angle
    # Cardano: t = A + m2 / A, A = -sign(h) cbrt(|h| + sqrt(disc)) formed without
    # cancellation.  A + m2/A itself cancels where m2 < 0; the Newton step repairs it
    big_a = np.sqrt(disc, where=one, out=np.zeros_like(p))
    big_a += np.abs(h)
    np.cbrt(big_a, out=big_a)
    np.copysign(big_a, -h, out=big_a)
    np.copyto(t, big_a + m2 / big_a, where=one)
    u = t - 2.0 * v
    # one Newton step on the undepressed resolvent, kept where it lowers |f|:
    # next to a near-double root it can throw u far off
    linear = p * p - 4.0 * r
    f = ((u + 2.0 * p) * u + linear) * u - qq
    df = (3.0 * u + 4.0 * p) * u + linear
    newton = u - np.divide(f, df, where=df != 0.0, out=np.zeros_like(p))
    f_newton = ((newton + 2.0 * p) * newton + linear) * newton - qq
    u = np.where(np.abs(f_newton) <= np.abs(f), newton, u)
    return np.maximum(u, 0.0, out=u)


def _ferrari_roots(trailing: np.ndarray) -> np.ndarray:
    """Closed-form roots (4, m) of the monic quartics trailing (m, 4).

    x = y - a/4 leaves y^4 + p y^2 + q y + r.  With u the resolvent cubic's
    largest real root and s = sqrt(u), the quartic is the product of
    y^2 + s y + g1 and y^2 - s y + g2, where g1 + g2 = p + u and g1 g2 = r.
    All is real float64 arithmetic up to the two quadratics' roots.  Where
    q = 0 the quartic is a quadratic in y^2, solved as such.  A row that
    overflows or meets 0/0 gets a non-finite root.
    """
    a, b, c, d = trailing.T
    z = np.empty((4, len(trailing)), dtype=np.complex128)
    with np.errstate(all="ignore"):
        shift = 0.25 * a
        shift2 = shift * shift
        p = b - 6.0 * shift2
        q = c - 2.0 * b * shift + 8.0 * shift2 * shift
        r = d - c * shift + b * shift2 - 3.0 * shift2 * shift2
        u = _largest_resolvent_root(p, q, r)
        half_s = 0.5 * np.sqrt(u)
        # g1, g2 = (p + u)/2 -+ q/(2s): the one of larger magnitude adds two
        # terms of one sign, and the other is r over it
        half = 0.5 * (p + u)
        skew = q / (4.0 * half_s)
        big = half + np.copysign(skew, half)
        small = r / big
        g2_big = np.signbit(skew) == np.signbit(half)
        quarter_u = 0.25 * u
        # y^2 + s y + g1 and y^2 - s y + g2: roots sign s/2 +- sqrt(u/4 - g)
        for k, sign, g in ((0, -1.0, np.where(g2_big, small, big)),
                           (2, 1.0, np.where(g2_big, big, small))):
            quarter_disc = quarter_u - g
            far = np.sqrt(np.maximum(quarter_disc, 0.0))
            far += half_s
            far *= sign  # the real root of larger magnitude, or the real part
            np.subtract(far, shift, out=z.real[k])
            np.subtract(np.where(quarter_disc > 0.0, g / far, far), shift, out=z.real[k + 1])
            imag = np.sqrt(np.maximum(-quarter_disc, 0.0))
            z.imag[k] = imag
            np.negative(imag, out=z.imag[k + 1])
        biquadratic = q == 0.0
        if biquadratic.any():  # w^2 + p w + r = 0 with w = y^2
            pb, rb = p[biquadratic], r[biquadratic]
            root = np.sqrt(pb * pb - 4.0 * rb + 0j)
            w1 = -0.5 * (pb + np.copysign(1.0, pb) * root)
            w2 = rb / w1
            y1, y2 = np.sqrt(w1), np.sqrt(w2)
            z[:, biquadratic] = [y1, -y1, y2, -y2] - shift[biquadratic]
    return z


#: signed imaginary part, relative to 1 + |x|, given to each real starting
#: root: opposite for the two roots of a start quadratic
_OFF_AXIS = 2.0 ** -44 * np.array([[1.0], [-1.0], [1.0], [-1.0]])


def _start(trailing: np.ndarray) -> np.ndarray:
    """Starting points (degree, m) of the Aberth iteration on trailing (m, degree).

    Quartics start from their Ferrari roots, so that one step usually
    certifies them.  A real polynomial's iteration started on the real axis
    never leaves it, so each real Ferrari root moves off the axis by
    +-_OFF_AXIS (1 + |x|), far below the step that certifies it; this also
    parts the two equal roots of a start quadratic with a double root.  A
    quartic whose starting points still hold a non-finite value or two equal
    values (x^4, (x - 1)^4, (x^2 - 1)^2 among them), and every polynomial of
    another degree, starts on the circle.
    """
    if trailing.shape[1] != 4:
        return _circle_start(trailing)
    z = _ferrari_roots(trailing)
    np.copyto(z.imag, _OFF_AXIS * (1.0 + np.abs(z.real)), where=z.imag == 0.0)
    circle = ~np.isfinite(z).all(axis=0)
    for i in range(4):
        for j in range(i + 1, 4):
            circle |= z[i] == z[j]
    if circle.any():
        z[:, circle] = _circle_start(trailing[circle])
    return z


def _aberth_block(trailing: np.ndarray, roots: np.ndarray) -> None:
    """Iterate on the rows of trailing (m, degree); write their roots into roots."""
    z = _start(trailing)  # z[k, n]: root k of polynomial n
    ca = trailing.T
    idx = slice(None)  # where the unconverged polynomials go: all, until one leaves
    for _ in range(MAX_ITERATIONS):
        done = _aberth_step(z, ca) < CONVERGENCE_TOL
        if done.all():
            break
        if done.any():
            if isinstance(idx, slice):
                idx = np.arange(len(trailing))
            roots[idx[done]] = z[:, done].T
            keep = ~done
            idx, z, ca = idx[keep], z[:, keep], ca[:, keep]
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
    """Number of (numerically) real roots per polynomial.

    Works a column at a time: numpy reduces a short axis slowly, and no
    N x degree temporary is made.
    """
    columns = roots.T
    scale = np.abs(columns[0])
    for col in columns[1:]:
        np.maximum(scale, np.abs(col), out=scale)
    scale += 1.0
    scale *= REAL_TOL
    count = np.zeros(len(roots), dtype=np.int8)
    for col in columns:
        count += np.abs(col.imag) <= scale
    return count


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
