"""The benchmark's own tests: tiny smoke runs, a negative control, determinism.

    python3 -m pytest -q perfbench
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quadpencil as qp
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CLOCK = time.perf_counter


def tiny(workload, seed=0):
    return workloads.build(workload, seed, ROOT, tiny=True)


def outcomes_of(problems, tracer=None):
    outcomes, _ = run.run_problems(problems, CLOCK, tracer=tracer)
    return outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke(workload):
    outcomes = outcomes_of(tiny(workload))
    assert outcomes
    assert [o.note for o in outcomes if o.failed or not o.correct] == []


def _shift_first(spectrum):
    eig = spectrum.eigenvalues.copy()
    eig[0] *= 1.0 + 1e-4
    return dataclasses.replace(spectrum, eigenvalues=eig)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_shifted_eigenvalue_is_a_failed_op(workload, monkeypatch):
    original = qp.linearization.full_spectrum
    shifted = lambda *a, **k: _shift_first(original(*a, **k))
    for site in (qp, qp.linearization, qp.cli):
        monkeypatch.setattr(site, "full_spectrum", shifted)
    outcomes = [o for o in outcomes_of(tiny(workload)) if o.kind == "spectrum"]
    assert outcomes and all(o.failed and not o.correct for o in outcomes)
    assert all("off by" in o.note for o in outcomes)


def test_shifted_located_eigenvalue_is_a_failed_op(monkeypatch):
    original = qp.variational.locate_real_eigenvalues

    def shifted(*a, **k):
        result = original(*a, **k)
        return dataclasses.replace(result, eigenvalues=result.eigenvalues * (1.0 + 1e-4))

    monkeypatch.setattr(qp, "locate_real_eigenvalues", shifted)
    outcomes = [o for o in outcomes_of(tiny("beam-scale")) if o.kind == "locate"]
    assert outcomes and all(o.failed and not o.correct for o in outcomes)


def test_raising_op_is_failed_not_fatal(monkeypatch):
    def broken(*a, **k):
        raise FloatingPointError("injected")

    monkeypatch.setattr(qp, "simulate", broken)
    outcomes = outcomes_of(tiny("beam-scale"))
    sim = [o for o in outcomes if o.kind == "simulate"]
    assert sim and all(o.failed and not o.correct and "injected" in o.note for o in sim)
    assert not any(o.failed for o in outcomes if o.kind != "simulate")


def test_unexpected_exit_code_is_a_failed_op(monkeypatch):
    monkeypatch.setattr(qp.cli, "cmd_simulate", lambda args: 3)
    outcomes = outcomes_of(tiny("cli-mix"))
    sim = [o for o in outcomes if o.kind == "simulate"]
    assert sim and all(o.failed and "exit 3" in o.note for o in sim)


def _fingerprint(problems):
    return [(p.label, tuple(op.kind for op in p.ops)) for p in problems]


def test_same_seed_same_problem_set():
    for workload in workloads.WORKLOADS:
        assert _fingerprint(workloads.build(workload, 3, ROOT)) == _fingerprint(
            workloads.build(workload, 3, ROOT))
        assert sorted(_fingerprint(workloads.build(workload, 3, ROOT))) == sorted(
            _fingerprint(workloads.build(workload, 4, ROOT)))
    a = tiny("beam-scale", 3)[0].ops[0]
    b = tiny("beam-scale", 3)[0].ops[0]
    spectrum_a, _ = a.call()
    spectrum_b, _ = b.call()
    np.testing.assert_array_equal(spectrum_a.raw_eigenvalues, spectrum_b.raw_eigenvalues)


def test_end_to_end_uses_each_problems_median_and_the_host_scale():
    outcome = lambda kind, s: workloads.Outcome("p", kind, s, False, True)
    outcomes = [outcome("spectrum", 3.0), outcome("simulate", 1.0),
                outcome("spectrum", 5.0), outcome("spectrum", 4.0)]
    passes = [("p", 4.0), ("q", 1.0), ("p", 9.0), ("q", 2.0), ("p", 5.0)]
    values = run.end_to_end(outcomes, passes, host_scale=1.5)
    assert values == {"problems_per_s": 2 / (5.0 + 1.5) * 1.5,
                      "spectrum_p50_s": 4.0, "simulate_p50_s": 1.0}


def test_rounds_run_every_problem_once_per_round():
    problems = tiny("cli-mix")
    calls = []
    outcomes, passes = run.run_problems(problems, CLOCK, rounds=2,
                                        before_op=lambda: calls.append(1))
    assert [label for label, _ in passes] == [p.label for p in problems] * 2
    assert len(calls) == len(outcomes) == 2 * sum(len(p.ops) for p in problems)


def test_rounds_depend_only_on_the_workload_and_seconds():
    for workload in workloads.WORKLOADS:
        assert run.rounds_for(workload, 1) == 1
        nominal = run.PREPARE_NOMINAL_S + 3 * run.ROUND_NOMINAL_S[workload]
        assert run.rounds_for(workload, nominal) == 3
        assert run.rounds_for(workload, nominal - 0.1) == 2


def _traced_counts(workload, seed):
    problems = tiny(workload, seed)
    tracer = tracing.Tracer(CLOCK).install()
    try:
        outcomes = outcomes_of(problems, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced_wall=1.0, untraced_wall=1.0, eig_floor_s=1.0,
                             scipy_optimize_s=1.0, bytes_out=0)
    counts = {k: v for k, v in metrics.items() if not k.endswith("_s") and k not in (
        "linearization.full_spectrum_over_eig", "evolution.steps_per_s",
        "trace.unattributed_share")}
    ops = [(o.kind, o.failed) for o in outcomes]
    return counts, ops, tracer


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_counts(workload):
    counts_a, ops_a, _ = _traced_counts(workload, 5)
    counts_b, ops_b, _ = _traced_counts(workload, 5)
    assert counts_a == counts_b
    assert ops_a == ops_b
    assert counts_a["reports.checks"] > 0


def test_install_wraps_every_import_site_and_uninstall_restores():
    original = qp.pencil.compute_alpha
    tracer = tracing.Tracer(CLOCK).install()
    try:
        wrapped = qp.pencil.compute_alpha
        assert wrapped is not original
        assert qp.beam.compute_alpha is qp.interlacing.compute_alpha is wrapped
        assert qp.compute_alpha is wrapped
    finally:
        tracer.uninstall()
    assert qp.pencil.compute_alpha is qp.interlacing.compute_alpha is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_cover_each_op(workload):
    """Per op, the self times of the traced functions (the op.* root left
    out) add up to the op's wall time, but for at most 5% of it plus 1 ms
    of glue (the tiny ops take 3-400 ms)."""
    _, _, tracer = _traced_counts(workload, 0)
    names = {span[0] for span in tracer.spans}
    assert {"linearization.full_spectrum", "evolution.simulate"} <= names
    assert all(span[4] >= 0 for span in tracer.spans)
    children = {}
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + end - start
    traced_self = [0.0] * (tracer.op + 1)
    op_wall = [0.0] * (tracer.op + 1)
    for idx, (name, start, end, _, op) in enumerate(tracer.spans):
        if name.startswith("op."):
            op_wall[op] = end - start
        else:
            traced_self[op] += (end - start) - children.get(idx, 0.0)
    for op in range(tracer.op + 1):
        assert 0.0 < op_wall[op] - traced_self[op] <= 0.05 * op_wall[op] + 1e-3


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_setup_probe_gives_seconds_and_host_scale():
    setup_s, scale = run._probe(str(ROOT), "cli-mix", "0")
    assert setup_s > 0.0 and scale > 0.0
