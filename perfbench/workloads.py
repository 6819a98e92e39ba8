"""Problem sets, ops and oracles of the quadpencil benchmark.

A workload is one round of problems, which a run repeats; a problem is a
list of ops run one after the other on the same input. Each op has a timed
`call` into the public quadpencil API (or `quadpencil.cli.main`) and an
untimed `check` that compares the output with an oracle written here, which
does not use the code under test:

* eigenvalues against `numpy.linalg.eigvals` of the unwhitened companion
  [[0, I], [-A0, -D]], and against the closed form
  (-d +- sqrt(d^2 - 4 a0))/2 k^2 pi^2 for constant beam damping;
* energy traces against E(0) = z0'A0 z0 + w0'w0 and per-step monotonicity;
* CLI runs against the expected exit code and a parse of their output.

Every library call goes through the `quadpencil` package attributes, so the
tracer in `tracing.py` sees it.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import quadpencil as qp
from quadpencil import cli as qp_cli

WORKLOADS = ("beam-scale", "cli-mix")

# Oracle tolerances. An eigenvalue matches when it lies within
# EIG_RTOL * max(1, |lam|) of its oracle partner; an oracle eigenvalue counts
# as real when |Im| <= IMAG_RTOL * spectral radius.
EIG_RTOL = 1e-6
IMAG_RTOL = 1e-8
ENERGY_RTOL = 1e-10

BEAM_MODES = (50, 100, 150)
BEAM_PROFILES = (
    {"profile": "constant", "params": {"value": 4.0}},
    {"profile": "four_plus_sin", "params": {}},
)
BEAM_SIM = (0.1, 1e-4)       # 1000 steps from mode 1


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, bool, str]]  # (verdict_ok, oracle_ok, note)
    label: str = ""


@dataclass
class Problem:
    label: str
    ops: list[Op]


@dataclass
class Outcome:
    label: str
    kind: str
    seconds: float
    failed: bool
    correct: bool
    note: str = ""
    bytes_out: int = 0


# ---------------------------------------------------------------------------
# Oracles


def companion_eigenvalues(a0: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = a0.shape[0]
    c = np.block([[np.zeros((n, n)), np.eye(n)], [-a0, -d]])
    return np.linalg.eigvals(c)


def beam_closed_form(d: float, a0: float, n_modes: int) -> np.ndarray:
    k2pi2 = np.arange(1, n_modes + 1, dtype=float) ** 2 * np.pi**2
    root = np.sqrt(complex(d * d - 4.0 * a0))
    return np.concatenate([(-d + root) / 2.0 * k2pi2, (-d - root) / 2.0 * k2pi2])


def real_in(eigs: np.ndarray, lower: float) -> np.ndarray:
    """Oracle eigenvalues that are real and lie in (lower, 0], descending."""
    radius = max(1.0, float(np.max(np.abs(eigs))))
    real = eigs[np.abs(eigs.imag) <= IMAG_RTOL * radius].real
    return np.sort(real[(real > lower) & (real <= 0.0)])[::-1]


def compare_values(found, expected) -> str:
    """'' when two descending real lists agree to EIG_RTOL, else the reason."""
    found, expected = np.asarray(found, dtype=float), np.asarray(expected, dtype=float)
    if found.size != expected.size:
        return f"{found.size} real eigenvalues, oracle has {expected.size}"
    err = np.abs(found - expected) / np.maximum(1.0, np.abs(expected))
    if err.size and float(err.max()) > EIG_RTOL:
        return f"real eigenvalue off by {float(err.max()):.2e} relative"
    return ""


def match_real(found, oracle_eigs: np.ndarray, lower: float) -> str:
    """'' when the located eigenvalues equal the oracle's real ones in
    (lower, 0]; values within EIG_RTOL of the open end may be on either side."""
    found = np.sort(np.asarray(found, dtype=float))[::-1]
    expected = real_in(oracle_eigs, lower)
    edge = lower + EIG_RTOL * max(1.0, abs(lower))
    note = compare_values(found[found > edge], expected[expected > edge])
    return f"{note} in ({lower:.6g}, 0]" if note else ""


def match_all(found: np.ndarray, oracle_eigs: np.ndarray) -> str:
    """'' when the two complex multisets agree to EIG_RTOL (greedy pairing)."""
    if found.size != oracle_eigs.size:
        return f"{found.size} eigenvalues != oracle {oracle_eigs.size}"
    dist = np.abs(found[:, None] - oracle_eigs[None, :])
    dist /= np.maximum(1.0, np.abs(oracle_eigs))[None, :]
    worst = 0.0
    for i in np.argsort(-np.abs(found)):
        j = int(np.argmin(dist[i]))
        worst = max(worst, float(dist[i, j]))
        dist[:, j] = np.inf
    if worst > EIG_RTOL:
        return f"eigenvalue off by {worst:.2e} relative"
    return ""


def energy_problem(energies, e0: float, steps: int) -> str:
    energies = np.asarray(energies, dtype=float)
    if energies.size != steps + 1 or not np.all(np.isfinite(energies)):
        return f"{energies.size} energy records, expected {steps + 1}"
    if abs(energies[0] - e0) > 1e-12 * max(1.0, e0):
        return f"E(0) = {energies[0]!r}, expected {e0!r}"
    rise = float(np.max(np.diff(energies))) if steps else 0.0
    if rise > ENERGY_RTOL * e0:
        return f"energy rose by {rise:.3e}"
    return ""


def _expanded(values, mults) -> np.ndarray:
    return np.repeat(np.asarray(values, dtype=complex), np.asarray(mults, dtype=int))


# ---------------------------------------------------------------------------
# Library ops, each the call sequence of the matching CLI subcommand


def spectrum_op(make_pencil, eigs: np.ndarray, closed_form=None) -> Op:
    def call():
        pencil = make_pencil()
        system = qp.build_linearization(pencil)
        spectrum = qp.full_spectrum(system)
        reports = [
            qp.structural_report(system, spectrum),
            qp.check_pencil_equivalence(pencil, spectrum),
        ]
        if qp.compute_delta_gamma(pencil)[1] > 0.0:
            reports.append(qp.resolvent_region_check(pencil, spectrum))
        return spectrum, reports

    def check(out):
        spectrum, reports = out
        found = _expanded(spectrum.eigenvalues, spectrum.algebraic_multiplicities)
        note = match_all(found, eigs)
        if not note and closed_form is not None:
            note = match_all(found, closed_form)
        failing = sorted({f"{r.name}:{c.label}" for r in reports for c in r.failures()})
        return not failing, not note, note or " ".join(failing)

    return Op("spectrum", call, check)


def locate_op(make_pencil, eigs: np.ndarray, lower: float, closed_form=None,
              tol: float = 1e-8) -> Op:
    def call():
        return qp.locate_real_eigenvalues(make_pencil(), qp.IntervalDelta(lower=lower), tol)

    def check(result):
        note = match_real(result.eigenvalues, eigs, lower)
        if not note and closed_form is not None:
            note = match_real(result.eigenvalues, closed_form, lower)
        semisimple = all(d.semisimple for d in result.per_eigenvalue)
        return semisimple, not note, note or ("" if semisimple else "not semisimple")

    return Op("locate", call, check)


def simulate_op(make_pencil, a0: np.ndarray, t_final: float, dt: float) -> Op:
    n = a0.shape[0]
    z0, w0 = np.eye(n)[0], np.zeros(n)
    steps = int(np.floor(t_final / dt + 1e-12))
    e0 = float(z0 @ a0 @ z0 + w0 @ w0)

    def call():
        trace = qp.simulate(make_pencil(), z0, w0, t_final, dt)
        return trace, qp.energy_monotonicity_report(trace)

    def check(out):
        trace, report = out
        note = energy_problem(trace.energies, e0, steps)
        return report.ok, not note, note or " ".join(c.label for c in report.failures())

    return Op("simulate", call, check)


# ---------------------------------------------------------------------------
# CLI ops


@dataclass
class CliRun:
    rc: int
    text: str


def cli_op(kind: str, argv: list[str], expect_rc: int,
           check_doc: Callable[[str], str]) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qp_cli.main(argv)
        return CliRun(rc, buf.getvalue())

    def check(out):
        rc, text = out.rc, out.text
        if rc != expect_rc:
            return False, False, f"exit {rc}, expected {expect_rc}"
        try:
            note = check_doc(text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            note = f"unparsable output: {exc!r}"
        return True, not note, note

    label = " ".join([argv[0]] + [Path(a).stem for a in argv[1:] if a.endswith(".json")])
    return Op(kind, call, check, label)


def _json_doc(expect_ok: bool, inner: Callable[[dict], str] | None = None):
    def check(text: str) -> str:
        doc = json.loads(text)
        if doc["ok"] is not expect_ok:
            return f"ok is {doc['ok']}, expected {expect_ok}"
        return inner(doc) if inner else ""
    return check


# ---------------------------------------------------------------------------
# Workloads


def inputs(workload: str, seed: int, root: Path, tiny: bool = False):
    """What a workload sets up before its first op, through quadpencil
    alone: beam pencils discretized (in the seed's order), or the shipped
    configs loaded and their pencils built. The benchmark's oracles are
    not part of it."""
    if workload == "beam-scale":
        made = []
        for n_modes in ((4, 6) if tiny else BEAM_MODES):
            for spec in BEAM_PROFILES:
                cfg = qp.BeamConfig(a0=1.0, damping=qp.make_damping_profile(spec),
                                    n_modes=n_modes)
                made.append((f"beam {spec['profile']} n={n_modes}", cfg,
                             qp.discretize_beam(cfg)))
        random.Random(seed).shuffle(made)
        return made
    if workload == "cli-mix":
        made = {}
        for path in sorted((root / "configs").glob("*.json")):
            config = qp.load_config(path)
            made[path.stem] = (path, config, qp.build_pencil(config))
        return made
    raise ValueError(f"unknown workload {workload!r}")


def _beam(made) -> list[Problem]:
    problems = []
    for label, cfg, pencil in made:
        a0, d = pencil.a0_matrix, pencil.d_matrix
        make = lambda cfg=cfg: qp.discretize_beam(cfg)
        eigs = companion_eigenvalues(a0, d)
        closed = None
        if cfg.damping.d_min == cfg.damping.d_max:
            closed = beam_closed_form(cfg.damping.d_min, cfg.a0, cfg.n_modes)
        lower = -cfg.damping.d_min * np.pi**2 / 2.0
        problems.append(Problem(label, [
            spectrum_op(make, eigs, closed),
            locate_op(make, eigs, lower, closed),
            simulate_op(make, a0, *BEAM_SIM),
        ]))
    return problems


def _cli(made, seed: int, tiny: bool) -> list[Problem]:
    cfg = {name: path for name, (path, _, _) in made.items()}
    loaded = {name: config for name, (_, config, _) in made.items()}
    a0s = {name: pencil.a0_matrix for name, (_, _, pencil) in made.items()}
    eigs = {name: companion_eigenvalues(pencil.a0_matrix, pencil.d_matrix)
            for name, (_, _, pencil) in made.items()}

    def spectrum_doc(name):
        def inner(doc):
            ev = doc["eigenvalues"]
            found = _expanded([complex(e["re"], e["im"]) for e in ev],
                              [e["algebraic_multiplicity"] for e in ev])
            return match_all(found, eigs[name])
        return _json_doc(True, inner)

    def variational_doc(name):
        def inner(doc):
            found = [e["value"] for e in doc["eigenvalues"] for _ in range(e["multiplicity"])]
            return match_real(found, eigs[name], doc["interval"]["lower"])
        return _json_doc(True, inner)

    def interlace_doc(name_a, name_b):
        def inner(doc):
            comp = doc["comparison"]
            lower = comp["interval_lower"]
            for name, key, count in ((name_a, "lambda", comp["n_left"]),
                                     (name_b, "lambda_hat", comp["n_right"])):
                beam = loaded[name].beam
                expected = real_in(
                    beam_closed_form(beam.damping.d_min, beam.a0, beam.n_modes), lower)
                values = [entry[key] for entry in comp["per_n"]]
                note = compare_values([count], [expected.size]) or compare_values(
                    values, expected[: len(values)])
                if note:
                    return f"{name}: {note}"
            return ""
        return _json_doc(True, inner)

    def violation_doc(text):
        doc = json.loads(text)
        if doc["ok"] is not False or doc["comparison"]["form_order_ok"] is not False:
            return "form-order violation not reported"
        return ""

    def simulate_doc(name, t_final, dt):
        a0 = a0s[name]
        def check(text):
            lines = text.splitlines()
            if not lines[0].startswith("# generated_at=") or lines[1] != "time,energy,dissipation":
                return "unexpected CSV header"
            energies = [float(row.split(",")[1]) for row in lines[2:]]
            return energy_problem(energies, float(a0[0, 0]), int(round(t_final / dt)))
        return check

    def beam_report_doc(name):
        def inner(doc):
            beam = loaded[name].beam
            if beam.damping.d_min != beam.damping.d_max:
                return ""
            found = np.array([complex(z["re"], z["im"]) for z in doc["closed_form"]])
            return match_all(found, beam_closed_form(beam.damping.d_min, beam.a0, beam.n_modes))
        return _json_doc(True, inner)

    c = lambda name: str(cfg[name])
    ops = [
        cli_op("spectrum", ["spectrum", c("beam_sin")], 0, spectrum_doc("beam_sin")),
        cli_op("variational", ["variational", c("dense_diag")], 0, variational_doc("dense_diag")),
        cli_op("interlace", ["interlace", c("interlace_violation_a"), c("interlace_violation_b")],
               1, violation_doc),
        cli_op("simulate", ["simulate", c("dense_diag"), "--t-final", "10", "--dt", "0.001"],
               0, simulate_doc("dense_diag", 10.0, 0.001)),
    ]
    if not tiny:
        ops += [
            cli_op("variational", ["variational", c("random_dim4")], 0,
                   variational_doc("random_dim4")),
            cli_op("interlace", ["interlace", c("beam_const4"), c("beam_const5")], 0,
                   interlace_doc("beam_const4", "beam_const5")),
            cli_op("beam-report", ["beam-report", c("beam_sin")], 0, beam_report_doc("beam_sin")),
            cli_op("beam-report", ["beam-report", c("beam_const4")], 0,
                   beam_report_doc("beam_const4")),
        ]
    random.Random(seed).shuffle(ops)
    return [Problem(op.label, [op]) for op in ops]


def interpreter_reference() -> int:
    """A fixed pure-Python loop, outside quadpencil: the kind of work
    (alpha's Nelder-Mead objective) that takes most of a cli-mix round."""
    total = 0
    for i in range(20_000):
        total += i * i
    return total


# Seconds interpreter_reference takes on the host of the README's baseline.
REFERENCE_NOMINAL_S = 1.45e-3


def host_scale(clock, calls: int = 1) -> float:
    """How much slower than nominal the host runs interpreter_reference
    now: seconds per call over `calls` calls / REFERENCE_NOMINAL_S."""
    start = clock()
    for _ in range(calls):
        interpreter_reference()
    return (clock() - start) / calls / REFERENCE_NOMINAL_S


def build(workload: str, seed: int, root: Path, tiny: bool = False) -> list[Problem]:
    """The round of one workload, with its oracles computed; the same seed
    gives the same round."""
    made = inputs(workload, seed, root, tiny)
    return _beam(made) if workload == "beam-scale" else _cli(made, seed, tiny)


# ---------------------------------------------------------------------------
# Running


def run_op(label: str, op: Op, clock) -> Outcome:
    """Time op.call, then check its output outside the timed region."""
    start = clock()
    try:
        out = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Outcome(label, op.kind, clock() - start, True, False, f"raised {exc!r}")
    seconds = clock() - start
    verdict_ok, oracle_ok, note = op.check(out)
    bytes_out = len(out.text) if isinstance(out, CliRun) else 0
    return Outcome(label, op.kind, seconds, not (verdict_ok and oracle_ok), oracle_ok,
                   note, bytes_out)
