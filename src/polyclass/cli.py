"""Command-line front end: classify, localize, synthesize, quintic, render, selftest.

Exit codes: 0 success, 1 error, 2 success with a boundary-fragile verdict.
Coefficients are parsed manually so negative numbers and p/q fractions work
without escaping.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import cubic as cubic_mod
from . import geometry as geometry_mod
from .errors import DegenerateAtBoundary, PolyclassError
from .numeric import DEFAULT_EPS, DEFAULT_TOL, Tolerance, parse_number
from .oracle import brute_discriminant, solve
from .poly import Cubic, Quartic, discriminant_quartic
from .quartic import (
    _ZERO_DISC_NATURES,
    NATURE_STRUCTURE,
    DoublePairPosition,
    Nature,
    _b_gap,
    _verdict_roots,
    classify_quartic,
)
from .quintic import delta5_eval, delta5_sign_changes, quintic_cascade
from .report import SCHEMA, Report, error_report
from .reverse import (
    NatureTarget,
    admissible_b_range,
    admissible_c_range,
    admissible_d_range,
    synthesize,
)
from .svg import render_cubic, render_quartic

USAGE = """usage: polyclass <command> [options]

commands:
  classify   --cubic A B C | --quartic A B C D   root-nature classification
  localize   --quartic A B C D                   landmark intervals around the roots
  synthesize --nature NAME --a V [--b V] [--c V] build a quartic with a target nature
  quintic    --coeffs P Q R S T                  free-term discriminant cascade
  render     (--cubic A B C | --quartic A B C D) --out FILE.svg
  selftest   [--seed N]                          deterministic verification battery

global options:
  --json          emit a JSON report (schema polyclass.report.v1)
  --tol EPS       relative sign-test tolerance (default 1e-9)
  --exact         rational arithmetic; coefficients as integers or p/q
  --seed N        seed for seeded strategies
  --oracle-check  append oracle agreement to classify reports

synthesize options:
  --position lowest|middle|highest   double-pair placement
  --strategy midpoint|random         coefficient picking strategy
  --window W                         sampling window width (default 10)

nature names: no-real two-equal two-distinct four-distinct double-pair
              two-double-pairs triple-plus-single quadruple
"""

VALUE_FLAGS = {
    "--cubic": 3, "--quartic": 4, "--coeffs": 5,
    "--a": 1, "--b": 1, "--c": 1,
    "--tol": 1, "--seed": 1, "--out": 1, "--nature": 1,
    "--position": 1, "--strategy": 1, "--window": 1,
}
BOOL_FLAGS = {"--json", "--exact", "--oracle-check"}

NATURE_NAMES = {
    "no-real": Nature.NO_REAL,
    "two-equal": Nature.TWO_EQUAL_REAL,
    "two-distinct": Nature.TWO_DISTINCT_REAL,
    "four-distinct": Nature.FOUR_DISTINCT_REAL,
    "double-pair": Nature.FOUR_REAL_DOUBLE_PAIR,
    "two-double-pairs": Nature.TWO_DOUBLE_PAIRS,
    "triple-plus-single": Nature.TRIPLE_PLUS_SINGLE,
    "quadruple": Nature.QUADRUPLE_ROOT,
}
POSITION_NAMES = {
    "lowest": DoublePairPosition.LOWEST_TWO,
    "middle": DoublePairPosition.MIDDLE_TWO,
    "highest": DoublePairPosition.HIGHEST_TWO,
}


class CliError(Exception):
    pass


def parse_argv(argv: Sequence[str]) -> Tuple[str, Dict]:
    if not argv or argv[0] in ("-h", "--help"):
        raise CliError(USAGE)
    command, rest = argv[0], list(argv[1:])
    opts: Dict = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if token in BOOL_FLAGS:
            opts[token[2:].replace("-", "_")] = True
            i += 1
        elif token in VALUE_FLAGS:
            count = VALUE_FLAGS[token]
            values = rest[i + 1:i + 1 + count]
            # a flag is never a value: "--cubic 1 2 --json" lacks a coefficient
            if len(values) < count or any(v in VALUE_FLAGS or v in BOOL_FLAGS
                                          for v in values):
                raise CliError(f"flag {token} expects {count} value(s)")
            opts[token[2:]] = values if count > 1 else values[0]
            i += 1 + count
        elif token in ("-h", "--help"):
            raise CliError(USAGE)
        else:
            raise CliError(f"unknown argument {token!r}\n\n{USAGE}")
    return command, opts


def _mode(opts) -> Tuple[bool, Tolerance]:
    """The arithmetic (exact or float) and the sign-test tolerance of a command."""
    eps = float(opts.get("tol", DEFAULT_EPS))
    return bool(opts.get("exact")), DEFAULT_TOL if eps == DEFAULT_EPS else Tolerance(eps)


def _numbers(opts, key, exact) -> List:
    return [parse_number(v, exact) for v in opts[key]]


def _header(command: str, exact: bool, tol: Tolerance) -> Dict:
    """The keys that open every report of a computation, in report order."""
    return {"schema": SCHEMA, "command": command,
            "arithmetic": "rational" if exact else "float", "eps": tol.eps}


def _root_entries(rootset) -> List[Dict]:
    return [
        {"value": v, "multiplicity": m, "residual": r}
        for (v, m), r in zip(rootset.roots, rootset.residuals)
    ]


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return f"{float(v):.6g}"


# --- classify --------------------------------------------------------------------


def _audit(comparisons) -> List[Dict]:
    return [
        {"name": c.name, "value": c.value, "margin_units": c.margin_units,
         "fragile": c.fragile}
        for c in comparisons
    ]


def _classify_quartic_report(q: Quartic, tol: Tolerance, exact: bool,
                             oracle_check: bool) -> Tuple[Report, int]:
    cls = classify_quartic(q, tol)
    thr = cls.thresholds
    roots, source = _verdict_roots(cls)
    geometry = None
    if _b_gap(float(q.a), float(q.b)) > 0.0:
        # the fields in declaration order, which is the report's; a shallow copy,
        # as dataclasses.asdict's deep copy costs 20-40 us a report
        geometry = dict(vars(geometry_mod.tetrahedron_data(float(q.a), float(q.b))))
    fragile = any(c.fragile for c in cls.comparisons)
    data = {
        **_header("classify", exact, tol),
        "input": {"kind": "quartic",
                  "coefficients": {"a": q.a, "b": q.b, "c": q.c, "d": q.d}},
        "classification": {
            "case": cls.case.value,
            "nature": cls.nature.value,
            "position": cls.position.value if cls.position else None,
        },
        "thresholds": {
            "C0": thr.c_mid, "C1": thr.c_hi, "C2": thr.c_lo,
            "A": thr.abc[0], "B": thr.abc[1], "C": thr.abc[2],
            "d_roots": list(thr.d_roots),
            "d_dagger": thr.d_dagger, "d_tilde": thr.d_tilde,
        },
        "geometry": geometry,
        "roots": _root_entries(roots) if roots is not None else None,
        "complex_pairs": roots.complex_pairs if roots is not None else 2,
        "roots_source": source,
        "audit": _audit(cls.comparisons),
        "fragile": fragile,
    }
    if oracle_check:
        rs = solve(q.as_float())
        expected_count, expected_mults = NATURE_STRUCTURE[cls.nature]
        data["oracle"] = {
            "roots": _root_entries(rs),
            "complex_pairs": rs.complex_pairs,
            "real_count_agrees": rs.real_count == expected_count,
            "multiplicities_agree":
                tuple(sorted(rs.multiplicities)) == expected_mults,
            "discriminant_closed_form": float(discriminant_quartic(q.as_float())),
            "discriminant_brute": brute_discriminant(q.as_float()),
        }
    return Report(data=data), (2 if fragile else 0)


def _classify_cubic_report(cu: Cubic, tol: Tolerance, exact: bool,
                           oracle_check: bool) -> Tuple[Report, int]:
    cls = cubic_mod.classify_cubic(cu, tol)
    roots = cubic_mod._verdict_roots(cu, cls)
    fragile = any(c.fragile for c in cls.comparisons)
    theta = isolation = triangle = None
    if cls.triangle is not None:
        theta = cls.triangle.theta
        triangle = dict(vars(cls.triangle))
        iso = cubic_mod._isolation(cu, cls.triangle, tol)
        isolation = {"branch": iso.branch,
                     "intervals": [list(i) for i in iso.intervals]}
    data = {
        **_header("classify", exact, tol),
        "input": {"kind": "cubic",
                  "coefficients": {"a": cu.a, "b": cu.b, "c": cu.c}},
        "classification": {"kind": cls.kind.value, "theta": theta},
        "thresholds": (dict(vars(cls.thresholds))
                       if cls.thresholds is not None else None),
        "triangle": triangle,
        "isolation": isolation,
        "roots": _root_entries(roots),
        "complex_pairs": roots.complex_pairs,
        "audit": _audit(cls.comparisons),
        "fragile": fragile,
    }
    if oracle_check:
        rs = solve(cu.as_float())
        data["oracle"] = {
            "roots": _root_entries(rs),
            "complex_pairs": rs.complex_pairs,
            "real_count_agrees": rs.real_count == roots.real_count,
        }
    return Report(data=data), (2 if fragile else 0)


def cmd_classify(opts) -> Tuple[Report, int]:
    exact, tol = _mode(opts)
    oracle_check = bool(opts.get("oracle_check"))
    if "quartic" in opts:
        q = Quartic(*_numbers(opts, "quartic", exact))
        return _classify_quartic_report(q, tol, exact, oracle_check)
    if "cubic" in opts:
        cu = Cubic(*_numbers(opts, "cubic", exact))
        return _classify_cubic_report(cu, tol, exact, oracle_check)
    raise CliError("classify needs --cubic or --quartic")


# --- localize --------------------------------------------------------------------


def cmd_localize(opts) -> Tuple[Report, int]:
    exact, tol = _mode(opts)
    if "quartic" not in opts:
        raise CliError("localize needs --quartic A B C D")
    q = Quartic(*_numbers(opts, "quartic", exact))
    cls = classify_quartic(q, tol)
    loc = geometry_mod.localize_roots(q, cls)
    sorted_roots = _verdict_roots(cls)[0].expanded()
    contained = [
        bool(lo - 1e-9 <= x <= hi + 1e-9)
        for x, (lo, hi) in zip(sorted_roots, loc.intervals)
    ]
    fragile = any(c.fragile for c in cls.comparisons)
    data = {
        **_header("localize", exact, tol),
        "input": {"kind": "quartic",
                  "coefficients": {"a": q.a, "b": q.b, "c": q.c, "d": q.d}},
        "classification": {"case": cls.case.value, "nature": cls.nature.value},
        "branch": loc.branch,
        "tie_at_c0": loc.tie_at_c0,
        "intervals": [list(i) for i in loc.intervals],
        "roots": list(sorted_roots),
        "contained": contained,
        "fragile": fragile,
    }
    return Report(data=data), (2 if fragile else 0)


# --- synthesize ------------------------------------------------------------------


def _admissible_payload(adm) -> Dict:
    return {
        "intervals": [list(i) for i in adm.intervals],
        "points": list(adm.points),
    }


def cmd_synthesize(opts) -> Tuple[Report, int]:
    exact, tol = _mode(opts)
    name = opts.get("nature")
    if name not in NATURE_NAMES:
        raise CliError(f"--nature must be one of {', '.join(sorted(NATURE_NAMES))}")
    if "a" not in opts:
        raise CliError("synthesize needs --a")
    nature = NATURE_NAMES[name]
    position = None
    if "position" in opts:
        if opts["position"] not in POSITION_NAMES:
            raise CliError("--position must be lowest, middle or highest")
        position = POSITION_NAMES[opts["position"]]
    target = NatureTarget(
        nature=nature,
        a=parse_number(opts["a"], exact),
        b=parse_number(opts["b"], exact) if "b" in opts else None,
        c=parse_number(opts["c"], exact) if "c" in opts else None,
        position=position,
        strategy=opts.get("strategy", "midpoint"),
        seed=int(opts["seed"]) if "seed" in opts else None,
        exact=exact,
        window=float(opts.get("window", 10.0)),
    )
    q = synthesize(target, tol)
    cls = classify_quartic(q, tol)
    chain = {
        "b": _admissible_payload(admissible_b_range(target.a, nature)),
        "c": _admissible_payload(
            admissible_c_range(q.a, q.b, nature, position, tol)),
        "d": _admissible_payload(
            admissible_d_range(q.a, q.b, q.c, nature, position, tol)),
    }
    data = {
        **_header("synthesize", exact, tol),
        "target": {"nature": nature.value,
                   "position": position.value if position else None,
                   "strategy": target.strategy, "seed": target.seed},
        "admissible": chain,
        "quartic": {"a": q.a, "b": q.b, "c": q.c, "d": q.d},
        "classified": {"case": cls.case.value, "nature": cls.nature.value,
                       "position": cls.position.value if cls.position else None},
        "round_trip_ok": cls.nature is nature,
    }
    return Report(data=data), 0


# --- quintic ---------------------------------------------------------------------


def cmd_quintic(opts) -> Tuple[Report, int]:
    exact, tol = _mode(opts)
    if "coeffs" not in opts:
        raise CliError("quintic needs --coeffs P Q R S T")
    p, q, r, s, t = _numbers(opts, "coeffs", exact)
    cascade = quintic_cascade(p, q, r, s)
    disc_at_t = delta5_eval(cascade.delta5_coeffs, t)
    degenerate = False
    sign_changes = None
    t_roots = None
    try:
        summary = delta5_sign_changes(p, q, r, s, tol)
        sign_changes = summary.count
        t_roots = list(summary.t_roots)
    except DegenerateAtBoundary:
        degenerate = True
    data = {
        **_header("quintic", exact, tol),
        "input": {"coefficients": {"p": p, "q": q, "r": r, "s": s, "t": t}},
        "delta5_coeffs": list(cascade.delta5_coeffs),
        "delta5_at_t": disc_at_t,
        "delta_t": cascade.delta_t,
        "delta_tilde_s": cascade.delta_tilde_s,
        "delta_tilde_r": cascade.delta_tilde_r,
        "r0": cascade.r0, "r1": cascade.r1, "r2": cascade.r2,
        "sign_changes": sign_changes,
        "t_roots": t_roots,
        "degenerate_at_boundary": degenerate,
    }
    return Report(data=data), 0


# --- render ----------------------------------------------------------------------


def cmd_render(opts) -> Tuple[Report, int]:
    exact, tol = _mode(opts)
    if "out" not in opts:
        raise CliError("render needs --out FILE.svg")
    if "cubic" in opts:
        svg = render_cubic(Cubic(*_numbers(opts, "cubic", exact)), tol)
        kind = "cubic"
    elif "quartic" in opts:
        svg = render_quartic(Quartic(*_numbers(opts, "quartic", exact)), tol)
        kind = "quartic"
    else:
        raise CliError("render needs --cubic or --quartic")
    path = opts["out"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    data = {
        "schema": SCHEMA, "command": "render", "kind": kind,
        "out": path, "bytes": len(svg.encode("utf-8")),
    }
    return Report(data=data), 0


# --- selftest --------------------------------------------------------------------


def _approx(x, y, tol=5e-5) -> bool:
    return abs(float(x) - float(y)) <= tol * max(1.0, abs(float(y)))


def run_selftest(seed: int = 0) -> Tuple[List[str], bool]:
    lines: List[str] = []
    ok_all = True

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal ok_all
        ok_all &= passed
        suffix = f" {detail}" if detail else ""
        lines.append(f"{'ok  ' if passed else 'FAIL'} {name}{suffix}")

    # worked example 1
    q1 = Quartic(3.0, 2.0, -1.0, -0.95)
    c1 = classify_quartic(q1)
    thr = c1.thresholds
    r1 = solve(q1)
    check("example1.case", c1.case.value == "xvii" and c1.nature is Nature.FOUR_DISTINCT_REAL)
    check("example1.thresholds",
          _approx(thr.c_lo, -1.2526415) and _approx(thr.c_mid, -0.375)
          and _approx(thr.c_hi, 0.5026415)
          and _approx(thr.d_roots[0], 0.0967346)
          and _approx(thr.d_roots[1], -0.9287658)
          and _approx(thr.d_roots[2], -1.0))
    check("example1.roots",
          all(_approx(v, e) for v, e in zip(
              r1.values, (-1.5378682, -1.2787302, -0.7927688, 0.6093671))))

    # worked example 2
    q2 = Quartic(-4.0, 5.0, -1.75, -0.2)
    c2 = classify_quartic(q2)
    r2 = solve(q2)
    t2 = geometry_mod.tetrahedron_data(-4.0, 5.0)
    loc2 = geometry_mod.localize_roots(q2, c2)
    check("example2.nature", c2.nature is Nature.FOUR_DISTINCT_REAL)
    check("example2.geometry",
          _approx(t2.insphere_radius, 0.4082483) and _approx(t2.edge, 2.0)
          and _approx(t2.sigma3, 0.2928932) and _approx(t2.phi1, 0.1835034)
          and _approx(t2.rho1, 1.4082483) and _approx(t2.sigma1, 1.7071068))
    check("example2.branch", loc2.branch == "high_c")
    check("example2.containment",
          all(lo - 1e-9 <= x <= hi + 1e-9
              for x, (lo, hi) in zip(r2.expanded(), loc2.intervals)))

    # degenerate closed forms
    cq = classify_quartic(Quartic(4.0, 6.0, 4.0, 1.0))
    check("degenerate.quadruple",
          cq.nature is Nature.QUADRUPLE_ROOT
          and _approx(cq.closed_form_roots.values[0], -1.0))
    cp = classify_quartic(Quartic(0.0, -2.0, 0.0, 1.0))
    check("degenerate.two_double_pairs",
          cp.nature is Nature.TWO_DOUBLE_PAIRS
          and cp.closed_form_roots.values == (-1.0, 1.0))
    ct = classify_quartic(Quartic(0.0, -6.0, 8.0, -3.0))
    check("degenerate.triple_plus_single",
          ct.nature is Nature.TRIPLE_PLUS_SINGLE
          and _approx(ct.closed_form_roots.values[0], -3.0)
          and _approx(ct.closed_form_roots.values[1], 1.0))

    # cubic battery
    cu = Cubic(0.0, -1.0, 0.0)
    rs = cubic_mod.viete_roots(cu)
    check("cubic.roots",
          all(_approx(v, e) for v, e in zip(rs.values, (-1.0, 0.0, 1.0))))
    check("cubic.theta", _approx(cubic_mod.rotation_angle(cu), math.pi / 6.0))

    # seeded classifier-vs-oracle sweep
    import numpy as np
    from .batch import (
        REAL_COUNT_BY_CODE, aberth_roots_batch, classify_nature_batch,
        real_root_count_batch,
    )
    rng = np.random.default_rng(seed)
    n = 2000
    abcd = rng.uniform(-10.0, 10.0, size=(4, n))
    codes, margins = classify_nature_batch(*abcd)
    roots = aberth_roots_batch(np.stack(abcd, axis=1))
    counts = real_root_count_batch(roots)
    agree = (REAL_COUNT_BY_CODE[codes] == counts)
    solid = margins > 10.0
    check("fuzz.agreement",
          bool(agree[solid].all()) and float(agree.mean()) > 0.999,
          f"n={n} agree={int(agree.sum())} solid={int(solid.sum())}")

    # quintic cascade spot checks
    casc = quintic_cascade(1.0, -2.0, 0.5, 0.25)
    check("quintic.delta_tilde_r", _approx(casc.delta_tilde_r, 8 * (2 + 10) ** 3))
    check("quintic.monotone_has_no_transitions",
          delta5_sign_changes(0.0, 0.0, 0.0, 1.0).count == 0)

    # reverse round trips
    all_ok = True
    for name, nature in sorted(NATURE_NAMES.items()):
        exact = nature in _ZERO_DISC_NATURES
        target = NatureTarget(nature=nature, a=2.0, strategy="random",
                              seed=seed + 1, exact=exact)
        got = classify_quartic(synthesize(target)).nature
        all_ok &= got is nature
    check("reverse.round_trip", all_ok)

    lines.append(f"{'PASS' if ok_all else 'FAIL'} selftest ({len(lines)} checks)")
    return lines, ok_all


def cmd_selftest(opts) -> Tuple[Report, int]:
    seed = int(opts.get("seed", 0))
    lines, ok = run_selftest(seed)
    data = {
        "schema": SCHEMA, "command": "selftest", "seed": seed,
        "checks": lines, "passed": ok,
    }
    return Report(data=data), (0 if ok else 1)


# --- text rendering ---------------------------------------------------------------


def _print_text(report: Report):
    data = report.data
    cmd = data.get("command")
    if cmd == "selftest":
        for line in data["checks"]:
            print(line)
        return
    if "error" in data:
        print(f"error ({data['error']['type']}): {data['error']['message']}")
        return
    if cmd == "classify":
        cls = data["classification"]
        if "case" in cls:
            pos = f" position={cls['position']}" if cls.get("position") else ""
            print(f"case ({cls['case']}): {cls['nature']}{pos}")
            thr = data["thresholds"]
            print(f"  C2={_fmt(thr['C2']) if thr['C2'] is not None else 'n/a'}"
                  f"  C0={_fmt(thr['C0'])}"
                  f"  C1={_fmt(thr['C1']) if thr['C1'] is not None else 'n/a'}")
            if thr["d_roots"]:
                print("  d-roots: " + "  ".join(_fmt(v) for v in thr["d_roots"]))
            if thr["d_dagger"] is not None:
                print(f"  d_dagger={_fmt(thr['d_dagger'])}  d_tilde={_fmt(thr['d_tilde'])}")
        else:
            theta = cls.get("theta")
            extra = f"  theta={_fmt(theta)}" if theta is not None else ""
            print(f"kind: {cls['kind']}{extra}")
        if data.get("roots"):
            parts = [f"{_fmt(r['value'])} (x{r['multiplicity']})" for r in data["roots"]]
            print(f"roots: {'  '.join(parts)}  complex pairs: {data['complex_pairs']}")
        elif data.get("roots") is not None or data.get("complex_pairs"):
            print(f"roots: none real  complex pairs: {data.get('complex_pairs')}")
        if data.get("fragile"):
            flagged = [a["name"] for a in data["audit"] if a["fragile"]]
            print(f"warning: boundary-fragile comparisons: {', '.join(flagged)}")
        if "oracle" in data:
            agrees = data["oracle"].get("real_count_agrees")
            print(f"oracle check: real-count agreement = {agrees}")
        return
    if cmd == "localize":
        print(f"branch: {data['branch']}  (tie at C0: {data['tie_at_c0']})")
        for (lo, hi), x, okc in zip(data["intervals"], data["roots"], data["contained"]):
            print(f"  root {_fmt(x)} in [{_fmt(lo)}, {_fmt(hi)}]: {okc}")
        return
    if cmd == "synthesize":
        qq = data["quartic"]
        print(f"quartic: a={_fmt(qq['a'])} b={_fmt(qq['b'])} c={_fmt(qq['c'])} d={_fmt(qq['d'])}")
        for key in ("b", "c", "d"):
            adm = data["admissible"][key]
            ivals = " ".join(
                f"({'-inf' if lo is None else _fmt(lo)}, {'inf' if hi is None else _fmt(hi)})"
                for lo, hi in adm["intervals"]) or "none"
            pts = " ".join(_fmt(p) for p in adm["points"]) or "none"
            print(f"  admissible {key}: intervals: {ivals}  points: {pts}")
        print(f"classified: {data['classified']['nature']} "
              f"(case {data['classified']['case']}), round trip ok: {data['round_trip_ok']}")
        return
    if cmd == "quintic":
        print("delta5 coefficients (t^4..t^0): "
              + "  ".join(_fmt(v) for v in data["delta5_coeffs"]))
        print(f"delta5 at t: {_fmt(data['delta5_at_t'])}")
        print(f"delta_t={_fmt(data['delta_t'])}  delta_tilde_s={_fmt(data['delta_tilde_s'])}"
              f"  delta_tilde_r={_fmt(data['delta_tilde_r'])}")
        if data["degenerate_at_boundary"]:
            print("sign changes: degenerate at boundary")
        else:
            roots = "  ".join(_fmt(v) for v in data["t_roots"]) or "none"
            print(f"sign changes: {data['sign_changes']}  t-roots: {roots}")
        return
    if cmd == "render":
        print(f"wrote {data['out']} ({data['bytes']} bytes)")
        return
    print(report.to_json())


COMMANDS = {
    "classify": cmd_classify,
    "localize": cmd_localize,
    "synthesize": cmd_synthesize,
    "quintic": cmd_quintic,
    "render": cmd_render,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        command, opts = parse_argv(argv)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    handler = COMMANDS.get(command)
    if handler is None:
        print(f"unknown command {command!r}\n\n{USAGE}", file=sys.stderr)
        return 1
    want_json = bool(opts.get("json"))
    try:
        report, code = handler(opts)
    except (CliError, PolyclassError, ValueError, ArithmeticError, OSError) as exc:
        report = error_report(command, exc)
        if want_json:
            print(report.to_json())
        else:
            print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    if want_json:
        print(report.to_json())
    else:
        _print_text(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
