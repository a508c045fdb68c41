"""Checks of the benchmark itself: generators, ground truth, tracing, results.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import generators as gen
import run
import tracer
import workloads

import polyclass.cli
import polyclass.cubic
import polyclass.quartic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: spans each workload must fire (the per-layer table of the benchmark)
NAMED_SPANS = {
    "scalar-float": {
        "cli.cmd_classify", "cli.cmd_localize",
        "numeric.sign_terms", "quartic.quartic_thresholds",
        "quartic.classify_quartic", "poly.quartic_discriminant_terms",
        "cubic.viete_values", "oracle.solve", "geometry.tetrahedron_data",
        "geometry.localize_roots", "report.to_json", "cubic.classify_cubic",
        "quintic.delta5_sign_changes",
    },
    "exact-boundary": {
        "numeric.sign_terms", "quartic.quartic_thresholds",
        "quartic.classify_quartic", "reverse.synthesize",
        "reverse.admissible_d_range",
    },
    "batch-sweep": {
        "batch.classify_nature_batch", "batch.aberth_roots_batch",
        "batch.real_root_count_batch", "batch.min_root_gap_batch",
    },
    "batch-classify": {"batch.classify_nature_batch"},
}


def test_scalar_inputs_cover_every_nature_with_exact_dyadic_floats():
    ops = workloads.scalar_float(7)
    cases = [op.case for op in ops if isinstance(op, workloads.QuarticOp)]
    assert {c.nature for c in cases} == set(gen.NATURES)
    for c in cases:
        assert c.dyadic_exact
        assert gen.exact_nature(c.exact) == c.nature


def test_rational_cases_match_their_construction():
    rng = random.Random(3)
    for nature in gen.NATURES:
        for _ in range(10):
            case = gen.rational_case(nature, rng)
            assert gen.exact_nature(case.exact) == nature


def test_same_seed_same_inputs():
    a = [op.case.floats for op in workloads.scalar_float(5) if hasattr(op, "case")]
    b = [op.case.floats for op in workloads.scalar_float(5) if hasattr(op, "case")]
    c = [op.case.floats for op in workloads.scalar_float(6) if hasattr(op, "case")]
    assert a == b != c
    assert np.array_equal(gen.uniform_batch(5, 64), gen.uniform_batch(5, 64))


def test_rees_criterion_agrees_with_square_free_structure():
    rng = random.Random(11)
    for _ in range(400):
        coeffs = [rng.randint(-6, 6) for _ in range(4)]
        assert gen.rees_nature(*coeffs) == gen.exact_nature([Fraction(v) for v in coeffs])
    for nature in gen.NATURES:  # integer roots put these on the strata
        real, pairs = gen.roots_for(nature, rng)
        ints = gen.expand([r * 16 for r in real], [(u * 16, v * 16) for u, v in pairs])[1:]
        assert gen.rees_nature(*(int(x) for x in ints)) == nature


def test_weighted_scaling_is_exact_for_dyadic_floats():
    case = gen.quartic_case("triple_plus_single", random.Random(1))
    for k in workloads.PROBE_K:
        scaled = gen.weighted_scale(case.floats, k)
        assert [Fraction(x) for x in scaled] == list(gen.weighted_scale(case.exact, k))


def test_self_time_subtracts_direct_children():
    spans = [["root", 0, 100, -1, 0], ["a", 10, 60, 0, 0], ["b", 20, 30, 1, 0],
             ["c", 70, 90, 0, 0]]
    assert tracer.self_times(spans) == [30, 40, 10, 20]


@pytest.mark.parametrize("command", ["classify", "localize"])
def test_scalar_reports_are_the_cli_output(command, capsys):
    op_type = {"classify": workloads.QuarticOp, "localize": workloads.LocalizeOp}[command]
    op = op_type(gen.quartic_case("four_distinct_real", random.Random(2)))
    _, text = op.run()
    assert polyclass.cli.main([command, "--quartic", *op.opts["quartic"], "--json"]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert op.score(op.run())["correct"] == 1


def _small(name):
    ops = workloads.WORKLOADS[name][0](1)
    if name.startswith("batch"):
        return ops[:1] if name == "batch-sweep" else [ops[0], ops[1]]
    return ops


@pytest.mark.parametrize("name", sorted(NAMED_SPANS))
def test_traced_run_fires_named_spans_and_repeats_verdicts(name):
    ops = _small(name)
    _, reference = run.timed_pass(ops, run.MachineSpeed())
    original = polyclass.cubic.viete_values
    t = tracer.Tracer()
    with t.installed():
        # quartic.py and cli.py import by name: those bindings are wrapped too
        assert polyclass.quartic.viete_values.__wrapped__ is original
        assert (polyclass.cli.classify_quartic.__wrapped__
                is polyclass.quartic.classify_quartic.__wrapped__)
        verdicts = run.traced_pass(ops, t, run.MachineSpeed())
    assert polyclass.quartic.viete_values is original is polyclass.cubic.viete_values
    assert verdicts == reference
    fired = {rec[tracer.NAME] for rec in t.spans}
    assert NAMED_SPANS[name] <= fired
    roots = [rec for rec in t.spans if rec[tracer.PARENT] < 0]
    assert len(roots) == len(ops) and all(r[tracer.NAME] == "verdict" for r in roots)


def _result(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None


COUNT_METRICS = ("quartic.quartic_thresholds.calls", "cubic.viete_values.calls",
                 "numeric.sign_terms.calls_per_verdict", "oracle.solve.calls_per_verdict",
                 "scalar.refused", "scalar.wrong_confident", "scalar.wrong_fragile",
                 "outcome.error_rate", "outcome.fragile_rate", "report.bytes")


def test_counts_repeat_for_a_fixed_seed():
    args = ["--workload", "scalar-float", "--seed", "4", "--seconds", "1", "--trace", "1"]
    (p1, r1), (p2, r2) = _result(args), _result(args)
    assert p1.returncode == p2.returncode == 0
    assert r1["correct"] and r2["correct"]
    for name in COUNT_METRICS:
        assert r1["metrics"][name] == r2["metrics"][name], name
    assert r1["metrics"]["scalar.refused"]["value"] > 0  # the overflow probe shows


def test_result_line_has_every_declared_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc, res = _result(["--workload", "exact-boundary", "--seed", "2",
                         "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0 and res["correct"] and res["failed"] == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_per_layer_names_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = _small("batch-classify")
    metrics = run.per_layer_metrics(ops, [(Counter(), Counter(), [1], 1)], Counter(),
                                    [1], [1], Counter(), 0.1, 0.0, 0.0, 1.0)
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[k] == u for k, (_, u) in metrics.items())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar-float", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
