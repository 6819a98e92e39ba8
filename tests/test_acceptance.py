"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criteria run at desk scale against frozen closed forms and independent
oracles; tolerances are pinned here and nowhere else.
"""
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from quadpencil import (
    BeamConfig,
    IntervalDelta,
    QuadraticPencil,
    beam_bounds,
    build_linearization,
    compare_eigenvalues,
    compute_alpha,
    compute_delta_gamma,
    discretize_beam,
    energy_monotonicity_report,
    full_spectrum,
    locate_real_eigenvalues,
    make_damping_profile,
    rayleigh_batch,
    rayleigh_pair,
    resolvent_region_check,
    simulate,
    structural_report,
    verify_minmax,
)
from quadpencil.cli import main as cli_main
from quadpencil.config import random_pencil

from oracles import real_eigenvalues_in, semisimplicity_check

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SQRT3 = np.sqrt(3.0)
SQRT7 = np.sqrt(7.0)
ENSEMBLE_SIZE = 50


def conclude(num, label, problems, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] criterion {num:>2} ({elapsed:6.1f}s): {label}"
          + ("" if not problems else f" -- {len(problems)} problem(s)"))
    assert not problems, f"criterion {num}: {problems[:5]}"


@dataclass
class EnsembleEntry:
    seed: int
    pencil: QuadraticPencil
    alpha: float
    lower: float
    result: object
    system: object
    spectrum: object


@pytest.fixture(scope="module")
def ensemble():
    entries = []
    for seed in range(ENSEMBLE_SIZE):
        dim = 2 + seed % 5
        pencil = random_pencil(dim, seed, damping_scale=4.0 + (seed % 3),
                               ensure_real_root_cone=True)
        alpha = compute_alpha(pencil).alpha
        interval = IntervalDelta.inside(alpha)
        lower = interval.lower
        result = locate_real_eigenvalues(pencil, interval, 1e-10)
        system = build_linearization(pencil)
        spectrum = full_spectrum(system)
        entries.append(EnsembleEntry(seed, pencil, alpha, lower, result,
                                     system, spectrum))
    return entries


@pytest.fixture(scope="module")
def beam_fixtures():
    const = BeamConfig(
        a0=1.0,
        damping=make_damping_profile({"profile": "constant", "params": {"value": 4.0}}),
        n_modes=12,
    )
    varying = BeamConfig(
        a0=1.0,
        damping=make_damping_profile({"profile": "four_plus_sin", "params": {}}),
        n_modes=12,
    )
    return const, varying


def test_criterion_01_beam_closed_form(beam_fixtures):
    started = time.perf_counter()
    problems = []
    const, _ = beam_fixtures
    pencil = discretize_beam(const)
    result = locate_real_eigenvalues(
        pencil, IntervalDelta(lower=-2.0 * np.pi**2), 1e-10
    )
    expected = (-2.0 + SQRT3) * np.pi**2 * np.array([1.0, 4.0])
    if result.n_found != 2:
        problems.append(f"expected 2 eigenvalues, found {result.n_found}")
    else:
        for got, want in zip(result.eigenvalues, expected):
            if abs(got - want) > 1e-8:
                problems.append(f"eigenvalue {got} differs from {want}")
    bounds = beam_bounds(const)
    if bounds.n_min_count != 2:
        problems.append(f"guaranteed count {bounds.n_min_count} != 2")
    runtime = time.perf_counter() - started
    if runtime >= 5.0:
        problems.append(f"runtime {runtime:.2f}s exceeds 5s")
    conclude(1, "beam closed form, 12 modes, d=4", problems, started)


def test_criterion_02_beam_bounds_and_truncation(beam_fixtures):
    started = time.perf_counter()
    problems = []
    _, varying = beam_fixtures
    interval = IntervalDelta(lower=-2.0 * np.pi**2)
    bounds = beam_bounds(varying)
    result12 = locate_real_eigenvalues(discretize_beam(varying), interval, 1e-10)
    if result12.n_found < bounds.n_min_count:
        problems.append(f"found {result12.n_found} < guaranteed {bounds.n_min_count}")
    for i, lam in enumerate(result12.eigenvalues, start=1):
        if i <= len(bounds.upper_n) and lam > bounds.upper_n[i - 1] + 1e-7:
            problems.append(f"lambda_{i}={lam} above upper bound {bounds.upper_n[i-1]}")
        if i <= len(bounds.lower_n) and lam < bounds.lower_n[i - 1] - 1e-7:
            problems.append(f"lambda_{i}={lam} below lower bound {bounds.lower_n[i-1]}")
    cfg24 = BeamConfig(a0=varying.a0, damping=varying.damping, n_modes=24,
                       quadrature=varying.quadrature)
    result24 = locate_real_eigenvalues(discretize_beam(cfg24), interval, 1e-10)
    if result24.n_found != result12.n_found:
        problems.append(
            f"mode doubling changed the count: {result12.n_found} -> {result24.n_found}"
        )
    else:
        rel = np.abs(result24.eigenvalues - result12.eigenvalues) / np.abs(
            result12.eigenvalues
        )
        if np.max(rel) >= 1e-6:
            problems.append(f"truncation drift {np.max(rel):.2e} >= 1e-6")
    conclude(2, "variable-damping beam bounds and truncation stability",
             problems, started)


def test_criterion_03_minmax_equality(ensemble):
    started = time.perf_counter()
    problems = []
    for entry in ensemble:
        expected = []
        for lam, mult in real_eigenvalues_in(entry.spectrum, entry.lower):
            expected.extend([lam] * mult)
        got = list(entry.result.eigenvalues)
        if len(got) != len(expected):
            problems.append(
                f"seed {entry.seed}: counts differ, variational {len(got)} "
                f"vs linearization {len(expected)}"
            )
            continue
        if got and np.max(np.abs(np.array(got) - np.array(expected))) > 1e-7:
            problems.append(f"seed {entry.seed}: eigenvalue mismatch above 1e-7")
        report = verify_minmax(entry.pencil, entry.result)
        for check in report.failures():
            problems.append(f"seed {entry.seed}: {check.label} {check.data}")
    conclude(3, f"min-max equality on {len(ensemble)} seeded pencils",
             problems, started)


def test_criterion_04_structural_identities(ensemble):
    started = time.perf_counter()
    problems = []
    for entry in ensemble:
        report = structural_report(entry.system, entry.spectrum)
        for check in report.failures():
            problems.append(f"seed {entry.seed}: {check.label} {check.data}")
    conclude(4, "signature symmetry, closed-form inverse, half-plane, invertibility",
             problems, started)


def test_criterion_05_rayleigh_functional_laws(ensemble):
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(12345)
    per_pencil = 10000 // len(ensemble) + 1
    cone_total = 0
    sign_total = 0
    for entry in ensemble:
        pencil = entry.pencil
        n = pencil.dim
        _, gamma = compute_delta_gamma(pencil)

        # Cone points by rejection sampling around the strongest direction.
        collected = 0
        base = None
        attempts = 0
        while collected < per_pencil and attempts < 40:
            attempts += 1
            batch = rng.standard_normal((n, 6 * per_pencil))
            if base is not None:
                batch = base[:, None] + 0.6 * batch
            pm, pp, feas = rayleigh_batch(pencil, batch)
            cols = np.flatnonzero(feas)[: per_pencil - collected]
            if cols.size:
                base = batch[:, cols[0]]
                collected += cols.size
                cone_total += cols.size
                X = batch[:, cols]
                pm_s, pp_s = pm[cols], pp[cols]
                if not (np.all(pp_s < -1.0 / gamma) and np.all(pm_s < -1.0 / gamma)):
                    problems.append(f"seed {entry.seed}: root >= -1/gamma")
                # root residual bound
                norms = np.einsum("ij,ij->j", X, X)
                stiff = np.einsum("ij,ij->j", X, pencil.a0_matrix @ X)
                damp = np.einsum("ij,ij->j", X, pencil.d_matrix @ X)
                for roots in (pm_s, pp_s):
                    resid = np.abs(
                        roots**2 * norms + roots * damp + stiff
                    )
                    scale = norms * np.maximum(1.0, roots**2) + stiff
                    if not np.all(resid <= 1e-10 * scale):
                        problems.append(f"seed {entry.seed}: root residual too large")

        # Sign equivalences on random (x, lambda) with lambda in (alpha, 0].
        for _ in range(per_pencil):
            x = rng.standard_normal(n)
            lam = rng.uniform(entry.lower, 0.0)
            a = x @ x
            b = x @ pencil.d_matrix @ x
            c = x @ pencil.a0_matrix @ x
            val = lam * lam * a + lam * b + c
            if abs(val) <= 1e-12 * (lam * lam * a + c):
                continue
            sign_total += 1
            p_plus = rayleigh_pair(pencil, x).p_plus
            if val > 0 and not p_plus < lam:
                problems.append(f"seed {entry.seed}: positive form but p_plus >= lam")
            if val < 0 and not p_plus > lam:
                problems.append(f"seed {entry.seed}: negative form but p_plus <= lam")

    # Scale invariance: binary factors must be bit-exact, generic ones tight.
    fixture = ensemble[0].pencil
    for k in range(100):
        x = rng.standard_normal(fixture.dim)
        base = rayleigh_pair(fixture, x)
        for c in (2.0, -2.0, 0.5):
            scaled = rayleigh_pair(fixture, c * x)
            if scaled.p_minus != base.p_minus or scaled.p_plus != base.p_plus:
                problems.append("binary scale invariance not exact")
        for c in (3.0, -0.7):
            scaled = rayleigh_pair(fixture, c * x)
            if base.in_dstar and abs(scaled.p_plus - base.p_plus) > 1e-13 * abs(base.p_plus):
                problems.append("generic scale invariance above 1e-13")
    if cone_total < 10000:
        problems.append(f"only {cone_total} cone samples collected")
    if sign_total < 9000:
        problems.append(f"only {sign_total} usable sign-equivalence samples")
    conclude(5, f"Rayleigh laws on {cone_total} cone points, {sign_total} sign pairs",
             problems, started)


def test_criterion_06_resolvent_exclusion(ensemble, beam_fixtures):
    started = time.perf_counter()
    problems = []
    for entry in ensemble:
        report = resolvent_region_check(entry.pencil, entry.spectrum)
        for check in report.failures():
            problems.append(f"seed {entry.seed}: {check.label} {check.data}")
    for cfg in beam_fixtures:
        pencil = discretize_beam(cfg)
        spectrum = full_spectrum(build_linearization(pencil))
        report = resolvent_region_check(pencil, spectrum)
        for check in report.failures():
            problems.append(f"beam {cfg.damping.name}: {check.label}")
    conclude(6, "disc and wedge eigenvalue-free regions", problems, started)


def test_criterion_07_interlacing():
    started = time.perf_counter()
    problems = []
    rng = np.random.default_rng(77)
    for seed in range(50):
        dim = 2 + seed % 5
        pencil = random_pencil(dim, 5000 + seed, damping_scale=5.0,
                               ensure_real_root_cone=True)
        b1 = rng.standard_normal((dim, dim))
        b2 = rng.standard_normal((dim, dim))
        soften = (b1 @ b1.T) / dim
        soften *= 0.4 * np.linalg.eigvalsh(pencil.a0_matrix)[0] / np.linalg.norm(soften, 2)
        strengthen = 0.1 * (b2 @ b2.T) / dim
        partner = QuadraticPencil(
            pencil.a0_matrix - soften, pencil.d_matrix + strengthen
        )
        report = compare_eigenvalues(pencil, partner)
        if not report.n_ok:
            problems.append(f"seed {seed}: N={report.n_left} > N_hat={report.n_right}")
        for lam, lam_hat, ok in report.per_n:
            if not ok:
                problems.append(f"seed {seed}: {lam} > {lam_hat} + 1e-7")
        if not (report.gamma_order_ok and report.delta_order_ok):
            problems.append(f"seed {seed}: scalar order violated")
    code = cli_main([
        "interlace",
        str(CONFIGS / "interlace_violation_a.json"),
        str(CONFIGS / "interlace_violation_b.json"),
        "--out", "/dev/null",
    ])
    if code != 1:
        problems.append(f"violation fixture exited {code}, expected 1")
    conclude(7, "50 ordered pairs + violation fixture exit code", problems, started)


def test_criterion_08_semisimplicity(ensemble):
    started = time.perf_counter()
    problems = []
    for entry in ensemble:
        for diag in entry.result.per_eigenvalue:
            if not (entry.lower < diag.value < 0.0):
                continue
            if not diag.semisimple:
                problems.append(f"seed {entry.seed}: {diag.value} flagged defective")
            if not semisimplicity_check(entry.system, diag.value):
                problems.append(
                    f"seed {entry.seed}: kernel ranks of (A-lam) and (A-lam)^2 differ"
                )
    critical = QuadraticPencil([[1.0]], [[2.0]])
    if semisimplicity_check(build_linearization(critical), -1.0):
        problems.append("critical 1x1 double root not reported defective")
    conclude(8, "semi-simplicity inside the interval, defect at its edge",
             problems, started)


def test_criterion_09_energy_decay(beam_fixtures):
    started = time.perf_counter()
    problems = []
    diag_pencil = QuadraticPencil(np.diag([2.0, 8.0]), np.diag([6.0, 2.0]))

    trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 30.0, 1e-3)
    if not energy_monotonicity_report(trace).ok:
        problems.append("dense fixture: energy rose beyond 1e-10 E0")

    undamped = QuadraticPencil(np.diag([2.0, 8.0]), np.zeros((2, 2)))
    trace0 = simulate(undamped, [1.0, 0.0], [0.0, 0.0], 10.0, 1e-3)
    drift = np.max(np.abs(trace0.energies / trace0.energies[0] - 1.0))
    if drift > 1e-12:
        problems.append(f"undamped drift {drift:.2e} over 1e4 steps")

    const, _ = beam_fixtures
    pencil = discretize_beam(const)
    z0 = np.zeros(12)
    z0[0] = 1.0
    beam_trace = simulate(pencil, z0, np.zeros(12), 4.0, 5e-4)
    if not energy_monotonicity_report(beam_trace).ok:
        problems.append("beam fixture: energy rose beyond 1e-10 E0")
    conclude(9, "per-step contraction, conservation",
             problems, started)
