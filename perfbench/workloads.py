"""The four workloads: seeded operations, how each runs, and how it is scored.

An operation runs only public polyclass calls and returns its result; the
runner times ``op.run()`` and nothing else.  ``op.score(result)`` compares
the result with the truth the generator built, outside the timed region.

Outcomes: ``correct``; ``wrong_fragile`` (nature differs from the truth but a
comparison was flagged fragile); ``wrong_confident`` (differs, nothing
flagged); ``refused`` (the call raised).  ``fragile`` counts flagged
verdicts whatever their outcome.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import List

import numpy as np

import generators as gen
from polyclass import batch, cli, cubic, oracle, poly, quartic, quintic, reverse

ROOT_TOL = 1e-6  # relative root accuracy demanded where the nature is right
BOX_TOL = 1e-9  # containment slack of the landmark intervals
#: weighted-scaling exponents of the robustness probe, from discriminant
#: underflow (k <= -84) to overflow (k >= 84)
PROBE_K = (-100, -90, -84, -60, -30, 30, 60, 84, 90, 100)
BATCH_CHUNK = 1 << 17
SMALL_CHUNK = 1 << 10
CODE_OF = {n.value: i for i, n in enumerate(batch.NATURE_BY_CODE)}
#: natures of the timed ``polyclass localize`` calls.  A quadruple root has
#: no tetrahedron.  About 1 in 10 float triple_plus_single quartics reads as
#: two_equal_real (flagged fragile), and localize then raises NotFourReal:
#: those calls are in the robustness probe.
LOCALIZED = gen.FOUR_REAL - {"quadruple_root", "triple_plus_single"}


def _fragile(cls) -> bool:
    return any(c.fragile for c in cls.comparisons)


def _nature_outcome(got: str, truth: str, fragile: bool) -> Counter:
    out = Counter(fragile=int(fragile))
    if got == truth:
        out["correct"] += 1
    else:
        out["wrong_fragile" if fragile else "wrong_confident"] += 1
    return out


def _roots_match(values, truth) -> bool:
    return len(values) == len(truth) and all(
        abs(x - t) <= ROOT_TOL * (1.0 + abs(t)) for x, t in zip(values, truth))


# --- scalar-float ---------------------------------------------------------------------

def _expanded(entries) -> list:
    """Root values of a report's ``roots`` entries, repeated by multiplicity."""
    return [e["value"] for e in entries for _ in range(e["multiplicity"])]


def _boxes_hold(values, intervals) -> bool:
    return all(lo - BOX_TOL <= x <= hi + BOX_TOL for x, (lo, hi) in zip(values, intervals))


class QuarticOp:
    """``polyclass classify --quartic A B C D --json`` through the CLI's own code.

    The report runs classify_quartic, then the closed-form roots or
    oracle.solve, tetrahedron_data when 3a^2 - 8b > 0, and Report.to_json.
    """

    family = "scalar"
    samples = 1

    def __init__(self, case: gen.QuarticCase):
        self.case = case
        self.truth = case.nature
        self.opts = {"quartic": [repr(x) for x in case.floats]}

    def run(self):
        rep, _ = cli.cmd_classify(self.opts)
        return rep.data, rep.to_json()

    def verdict(self, result):
        data, text = result
        return data["classification"]["nature"], data["fragile"], len(text)

    def score(self, result) -> Counter:
        data, text = result
        fragile = data["fragile"]
        out = _nature_outcome(data["classification"]["nature"], self.truth, fragile)
        out["report_bytes"] += len(text.encode("utf-8"))
        out["reports"] += 1
        if out["correct"] and not fragile and not self.answer_holds(data):
            # a right nature with wrong roots or boxes is still a wrong answer
            out["correct"] -= 1
            out["wrong_confident"] += 1
        return out

    def answer_holds(self, data) -> bool:
        roots = data["roots"]
        return roots is None or _roots_match(_expanded(roots), self.case.real_roots)


class LocalizeOp(QuarticOp):
    """``polyclass localize --quartic A B C D --json`` on a quartic with four
    real roots, not all equal: classify, localize_roots, roots, report."""

    def run(self):
        rep, _ = cli.cmd_localize(self.opts)
        return rep.data, rep.to_json()

    def answer_holds(self, data) -> bool:
        truth = self.case.real_roots
        return (_roots_match(data["roots"], truth)
                and _boxes_hold(truth, data["intervals"]))


class CubicOp:
    family = "scalar"
    samples = 1

    def __init__(self, coeffs, kind, real_roots):
        self.coeffs, self.truth, self.real_roots = coeffs, kind, real_roots

    def run(self):
        cu = poly.Cubic(*self.coeffs)
        cls = cubic.classify_cubic(cu)
        iso = None
        if cls.kind is cubic.CubicKind.THREE_DISTINCT_REAL:
            iso = cubic.cubic_isolation_intervals(cu)
        return cls, iso

    def verdict(self, result):
        return result[0].kind.value

    def score(self, result) -> Counter:
        cls, iso = result
        out = _nature_outcome(cls.kind.value, self.truth, False)
        if iso is not None and not _boxes_hold(self.real_roots, iso.intervals):
            out["correct"] -= 1
            out["wrong_confident"] += 1
        return out


class QuinticOp:
    family = "scalar"
    samples = 1

    def __init__(self, pqrs, count):
        self.pqrs, self.truth = pqrs, count

    def run(self):
        return quintic.delta5_sign_changes(*self.pqrs)

    def verdict(self, result):
        return result.count

    def score(self, result) -> Counter:
        return _nature_outcome(result.count, self.truth, False)


def scalar_float(seed: int) -> List:
    rng = random.Random(seed)
    ops: List = [QuarticOp(gen.quartic_case(n, rng))
                 for n in gen.balanced_natures(rng, 120)]
    ops += [LocalizeOp(gen.quartic_case(n, rng))
            for n in sorted(LOCALIZED) for _ in range(30)]
    ops += [CubicOp(*gen.cubic_case(rng, three_real=i % 2 == 0)) for i in range(60)]
    ops += [QuinticOp(*gen.uniform_quintic(rng)) for _ in range(40)]
    rng.shuffle(ops)
    return ops


def scalar_probe(ops, seed: int) -> List:
    """Weighted-scaled copies of the first five quartics of each nature,
    localize calls on triple_plus_single quartics, and quintics the timed
    stream leaves out: prescribed critical points (large, ill-conditioned
    t-quartics) and uniform draws without conditioning."""
    picked, seen = [], Counter()
    for op in ops:
        if isinstance(op, QuarticOp) and seen[op.truth] < 5:
            seen[op.truth] += 1
            picked.append(op.case)
    rng = random.Random(seed)
    return ([ScaledOp(gen.weighted_scale(case.floats, k), case.nature)
             for k in PROBE_K for case in picked]
            + [LocalizeOp(gen.quartic_case("triple_plus_single", rng)) for _ in range(30)]
            + [QuinticOp(*gen.critical_point_quintic(rng, (0, 2, 4)[i % 3]))
               for i in range(30)]
            + [QuinticOp(*gen.uniform_quintic(rng, conditioned=False))
               for _ in range(120)])


class ScaledOp:
    """classify_quartic on a weighted-scaled copy; the nature is scale invariant."""

    samples = 1

    def __init__(self, coeffs, truth):
        self.coeffs, self.truth = coeffs, truth

    def run(self):
        return quartic.classify_quartic(poly.Quartic(*self.coeffs))

    def score(self, result) -> Counter:
        return _nature_outcome(result.nature.value, self.truth, _fragile(result))


# --- exact-boundary -------------------------------------------------------------------

class ExactClassifyOp:
    family = "exact"
    samples = 1

    def __init__(self, case: gen.QuarticCase):
        self.case, self.truth = case, case.nature

    def run(self):
        return quartic.classify_quartic(poly.Quartic(*self.case.exact))

    def verdict(self, result):
        return result.nature.value, _fragile(result)

    def score(self, result) -> Counter:
        out = _nature_outcome(result.nature.value, self.truth, _fragile(result))
        roots = result.closed_form_roots
        if (out["correct"] and roots is not None
                and not _roots_match(roots.expanded(),
                                     [float(r) for r in self.case.real_roots])):
            out["correct"] -= 1
            out["wrong_confident"] += 1
        return out


class SynthesizeOp:
    """The CLI's exact synthesize path: synthesize, classify back, admissible chain.

    Point natures are built from rational root data; open natures pick
    rational points of the admissible ranges.
    """

    family = "exact"
    samples = 1

    def __init__(self, nature: str, a: Fraction, seed: int):
        self.truth, self.a, self.seed = nature, a, seed

    def run(self):
        nature = quartic.Nature(self.truth)
        target = reverse.NatureTarget(nature=nature, a=self.a, strategy="random",
                                      seed=self.seed, exact=True)
        q = reverse.synthesize(target)
        cls = quartic.classify_quartic(q)
        chain = (reverse.admissible_b_range(target.a, nature),
                 reverse.admissible_c_range(q.a, q.b, nature, None),
                 reverse.admissible_d_range(q.a, q.b, q.c, nature, None))
        return q, cls, chain

    def verdict(self, result):
        q, cls, _ = result
        return (q.a, q.b, q.c, q.d), cls.nature.value

    def score(self, result) -> Counter:
        q, cls, _ = result
        out = _nature_outcome(cls.nature.value, self.truth, _fragile(cls))
        # the synthesized quartic itself must have the target structure
        if out["correct"] and gen.exact_nature((q.a, q.b, q.c, q.d)) != self.truth:
            out["correct"] -= 1
            out["wrong_confident"] += 1
        return out


def _leading(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A rational a with lo <= |a| <= hi and a small denominator."""
    den = rng.choice((1, 2, 3, 4, 6, 8))
    return Fraction(rng.choice((-1, 1)) * rng.randint(lo * den, hi * den), den)


def exact_boundary(seed: int) -> List:
    rng = random.Random(seed)
    ops: List = [ExactClassifyOp(gen.rational_case(n, rng))
                 for n in gen.balanced_natures(rng, 15)]
    for i, n in enumerate(gen.balanced_natures(rng, 15)):
        ops.append(SynthesizeOp(n, _leading(rng, 0, 10), seed * 1000 + i))
    rng.shuffle(ops)
    return ops


def exact_probe(ops, seed: int) -> List:
    """Weighted-scaled copies of the first five Fraction quartics of each
    nature, and synthesis with 10 < |a| <= 40, beyond the timed stream."""
    picked, seen = [], Counter()
    for op in ops:
        if isinstance(op, ExactClassifyOp) and seen[op.truth] < 5:
            seen[op.truth] += 1
            picked.append(op.case)
    rng = random.Random(seed)
    return ([ScaledOp(gen.weighted_scale(case.exact, k), case.nature)
             for k in PROBE_K for case in picked]
            + [SynthesizeOp(n, _leading(rng, 10, 40), seed * 1000 + 500 + i)
               for i, n in enumerate(gen.balanced_natures(rng, 4))])


# --- batch ----------------------------------------------------------------------------

def _score_codes(codes, margins, truth_codes) -> Counter:
    wrong = codes != truth_codes
    flagged = margins < 10.0  # NaN margins are not flagged
    return Counter(
        correct=int((~wrong).sum()),
        wrong_fragile=int((wrong & flagged).sum()),
        wrong_confident=int((wrong & ~flagged).sum()),
        fragile=int(flagged.sum()),
        nan_margin_unflagged=int((np.isnan(margins) & ~flagged).sum()),
    )


#: batch nature code -> (real-root count, sorted multiplicities)
_STRUCTURE = {CODE_OF[nature]: (sum(m), m)
              for (m, _), nature in gen.STRUCTURE.items()}


class SweepOp:
    """Classifier-vs-oracle sweep over one chunk, as in acceptance Criterion 3."""

    family = "batch"

    def __init__(self, abcd: np.ndarray, truth_codes: np.ndarray):
        self.abcd, self.truth_codes = abcd, truth_codes
        self.samples = len(abcd)

    def run(self):
        abcd = self.abcd
        codes, margins = batch.classify_nature_batch(
            abcd[:, 0], abcd[:, 1], abcd[:, 2], abcd[:, 3])
        roots = batch.aberth_roots_batch(abcd)
        counts = batch.real_root_count_batch(roots)
        scale = 1.0 + np.abs(roots).max(axis=1)
        repeated = batch.min_root_gap_batch(roots) < 1e-6 * scale
        agree = ((batch.REAL_COUNT_BY_CODE[codes] == counts)
                 & (batch.REPEATED_BY_CODE[codes] == repeated))
        fallback = np.flatnonzero(~agree)
        for i in fallback:  # the scalar oracle settles what the batch oracle disputes
            rs = oracle.solve(poly.Quartic(*abcd[i]))
            count, mults = _STRUCTURE[codes[i]]
            agree[i] = rs.real_count == count and tuple(sorted(rs.multiplicities)) == mults
        return codes, margins, agree, len(fallback)

    def verdict(self, result):
        codes, _, agree, fallback = result
        return codes.tobytes(), agree.tobytes(), fallback

    def score(self, result) -> Counter:
        codes, margins, agree, fallback = result
        out = _score_codes(codes, margins, self.truth_codes)
        out["fallback"] = fallback
        out["oracle_disagree"] = int((~agree).sum())
        return out


class ClassifyBatchOp:
    family = "batch"

    def __init__(self, abcd: np.ndarray, truth_codes: np.ndarray):
        self.cols = [np.ascontiguousarray(abcd[:, j]) for j in range(4)]
        self.truth_codes = truth_codes
        self.samples = len(abcd)

    def run(self):
        return batch.classify_nature_batch(*self.cols)

    def verdict(self, result):
        return result[0].tobytes()

    def score(self, result) -> Counter:
        return _score_codes(result[0], result[1], self.truth_codes)


def batch_inputs(seed: int, n: int = BATCH_CHUNK):
    """Float coefficients and exact truth codes of the uniform batch."""
    nums = gen.uniform_batch(seed, n)
    abcd = nums.astype(np.float64) / float(1 << gen.BATCH_GRID_BITS)
    truth = np.array([CODE_OF[t] for t in gen.batch_truth(nums)], dtype=np.int8)
    return abcd, truth


def batch_sweep(seed: int) -> List:
    abcd, truth = batch_inputs(seed)
    return [SweepOp(abcd, truth)]


def batch_classify(seed: int) -> List:
    """One call at 2^17, then the same samples in calls of 2^10."""
    abcd, truth = batch_inputs(seed)
    ops: List = [ClassifyBatchOp(abcd, truth)]
    for lo in range(0, len(abcd), SMALL_CHUNK):
        ops.append(ClassifyBatchOp(abcd[lo:lo + SMALL_CHUNK], truth[lo:lo + SMALL_CHUNK]))
    return ops


class ScaledBatchOp(ClassifyBatchOp):
    """classify_nature_batch on samples weighted-scaled by 2^k."""

    def __init__(self, abcd, truth_codes, k):
        super().__init__(abcd * (2.0 ** k) ** np.arange(1, 5), truth_codes)

    def run(self):
        with np.errstate(all="ignore"):  # the overflow is what the probe is after
            return super().run()


def batch_probe(ops, seed: int, n: int = 500) -> List:
    first = ops[0]
    abcd = first.abcd if isinstance(first, SweepOp) else np.stack(first.cols, axis=1)
    return [ScaledBatchOp(abcd[:n], first.truth_codes[:n], k) for k in PROBE_K]


WORKLOADS = {
    "scalar-float": (scalar_float, scalar_probe),
    "exact-boundary": (exact_boundary, exact_probe),
    "batch-sweep": (batch_sweep, batch_probe),
    "batch-classify": (batch_classify, batch_probe),
}
