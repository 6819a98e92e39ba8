"""Command-line front end: every theorem check reproducible from the shell.

Exit codes: 0 all checks pass, 1 a verified property failed, 2 input or
configuration error, 3 numerical failure. Reruns with identical config and
seed produce byte-identical outputs except for the timestamp line. The
QUADPENCIL_SEED environment variable overrides config seeds; only a
random-source config draws from its seed.
"""
from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ComputationError, ConfigError, FormOrderError, InvalidArgumentError

if TYPE_CHECKING:
    import argparse

    from .config import ProblemConfig

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
# Rows of the simulate CSV formatted and written at once: memory stays flat
# in the step count.
CSV_CHUNK_ROWS = 4096


def _timestamp() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _emit_json(payload: dict, out: str | None) -> None:
    import json

    payload = dict(payload)
    payload["generated_at"] = _timestamp()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(chunks: Iterable[str], out: str | None) -> None:
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
        stream.write(f"# generated_at={_timestamp()}\n")
        stream.writelines(chunks)


def _csv_chunks(trace) -> Iterator[str]:
    """The simulate CSV below its timestamp line: the header, then the rows
    in chunks of CSV_CHUNK_ROWS, each chunk formatted by one % of the row
    format repeated over its rows, from plain Python floats."""
    yield "time,energy,dissipation\n"
    columns = (trace.times, trace.energies, trace.dissipation)
    for start in range(0, trace.times.size, CSV_CHUNK_ROWS):
        chunk = np.column_stack([c[start:start + CSV_CHUNK_ROWS] for c in columns])
        yield "%.12g,%.16g,%.16g\n" * chunk.shape[0] % tuple(chunk.ravel().tolist())


def _load(path: str) -> ProblemConfig:
    from .config import load_config, parse_number

    config = load_config(path)
    env_seed = os.environ.get("QUADPENCIL_SEED")
    if env_seed is not None:
        seed = parse_number(env_seed, "QUADPENCIL_SEED", integer=True, minimum=0)
        config = replace(config, seed=seed)
        if config.random is not None:
            config = replace(config, random={**config.random, "seed": seed})
    return config


def _complex_entry(z: complex) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def cmd_spectrum(args) -> int:
    from .config import build_pencil
    from .linearization import (build_linearization, check_pencil_equivalence, full_spectrum,
                                resolvent_region_check, structural_report)
    from .pencil import compute_delta_gamma

    config = _load(args.config)
    pencil = build_pencil(config)
    system = build_linearization(pencil)
    spectrum = full_spectrum(system)
    reports = {
        "structural": structural_report(system, spectrum).to_dict(),
        "pencil_equivalence": check_pencil_equivalence(pencil, spectrum).to_dict(),
    }
    _, gamma = compute_delta_gamma(pencil)
    if gamma > 0.0:
        reports["resolvent_regions"] = resolvent_region_check(pencil, spectrum).to_dict()
    else:
        reports["resolvent_regions"] = None
    ok = all(r["ok"] for r in reports.values() if r is not None)
    payload = {
        "schema": 1,
        "command": "spectrum",
        "eigenvalues": [
            {
                **_complex_entry(lam),
                "algebraic_multiplicity": int(am),
                "geometric_multiplicity": int(gm),
                "residual": float(res),
            }
            for lam, am, gm, res in zip(
                spectrum.eigenvalues,
                spectrum.algebraic_multiplicities,
                spectrum.geometric_multiplicities,
                spectrum.residuals,
            )
        ],
        "cluster_tolerance": spectrum.cluster_tolerance,
        "block_sizes": list(spectrum.block_sizes),
        "reports": reports,
        "ok": ok,
    }
    _emit_json(payload, args.out)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_variational(args) -> int:
    from .config import build_pencil
    from .pencil import EIGEN_TOL, compute_scalars
    from .variational import IntervalDelta, locate_real_eigenvalues, verify_minmax

    config = _load(args.config)
    pencil = build_pencil(config)
    scalars = compute_scalars(pencil)
    lower = args.delta_lower
    if lower is None and not np.isfinite(scalars.alpha):
        # A real eigenvalue is a root of |x|^2 lam^2 + d[x] lam + a0[x]: |lam| <= d[x]/|x|^2 <= |D|.
        lower = -(pencil.d_norm + 1.0)
    interval = IntervalDelta.inside(scalars.alpha, lower)
    alpha = scalars.alpha if np.isfinite(scalars.alpha) else None
    bracket = None
    if alpha is not None:
        bracket = [scalars.alpha_lower if np.isfinite(scalars.alpha_lower) else None, alpha]
    result = locate_real_eigenvalues(pencil, interval, EIGEN_TOL)
    minmax = verify_minmax(pencil, result)
    ok = minmax.ok
    payload = {
        "schema": 1,
        "command": "variational",
        "alpha": alpha,
        "alpha_bracket": bracket,
        "delta": scalars.delta,
        "gamma": scalars.gamma,
        "disc_radius": scalars.disc_radius,
        "interval": {"lower": interval.lower, "upper": 0.0},
        "kappa": result.kappa,
        "n_found": result.n_found,
        "eigenvalues": [
            {
                "value": diag.value,
                "multiplicity": diag.multiplicity,
                "residual": diag.residual,
                "bracket": list(diag.bracket),
                "iterations": diag.iterations,
                "semisimple": diag.semisimple,
            }
            for diag in result.per_eigenvalue
        ],
        "minmax_report": minmax.to_dict(),
        "ok": ok,
    }
    _emit_json(payload, args.out)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_interlace(args) -> int:
    from .config import build_pencil
    from .interlacing import compare_eigenvalues

    config_a = _load(args.config_a)
    config_b = _load(args.config_b)
    pencil_a = build_pencil(config_a)
    pencil_b = build_pencil(config_b)
    try:
        comparison = compare_eigenvalues(pencil_a, pencil_b, a=args.delta_lower).to_dict()
    except FormOrderError:
        comparison = {"ok": False, "form_order_ok": False}
    ok = comparison["ok"]
    _emit_json({"schema": 1, "command": "interlace", "comparison": comparison, "ok": ok}, args.out)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_simulate(args) -> int:
    from .config import build_pencil
    from .evolution import energy_monotonicity_report, simulate

    config = _load(args.config)
    pencil = build_pencil(config)
    n = pencil.dim
    z0, w0 = config.initial if config.initial is not None else (np.eye(n)[0], np.zeros(n))
    trace = simulate(pencil, z0, w0, args.t_final, args.dt)
    report = energy_monotonicity_report(trace)
    _emit_csv(_csv_chunks(trace), args.out)
    for check in report.failures():
        print(f"energy law violated: {check.label} {check.data}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_PROPERTY


def cmd_beam_report(args) -> int:
    from .beam import beam_bounds, beam_closed_form, verify_beam_theorem

    config = _load(args.config)
    if config.source != "beam":
        raise ConfigError("beam-report requires a config with source = beam")
    cfg = config.beam
    bounds = beam_bounds(cfg)
    report = verify_beam_theorem(cfg)
    payload = {
        "schema": 1,
        "command": "beam-report",
        "bounds": {
            "applicable": bounds.applicable,
            "d_min": bounds.d_min,
            "d_max": bounds.d_max,
            "n_min_count": bounds.n_min_count,
            "upper_n": list(bounds.upper_n),
            "lower_n": list(bounds.lower_n),
        },
        "report": report.to_dict(),
        "ok": report.ok,
    }
    if cfg.damping.d_min == cfg.damping.d_max:
        payload["closed_form"] = [
            _complex_entry(z) for z in beam_closed_form(cfg)
        ]
    _emit_json(payload, args.out)
    return EXIT_OK if report.ok else EXIT_PROPERTY


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main dispatches
    `command` to the cmd_* function of that name, which imports the
    modules it runs."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="quadpencil",
        description="Spectral checks for damped second-order systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="full complex spectrum plus structure checks")
    p.add_argument("config")
    p.add_argument("--out", default=None)

    p = sub.add_parser("variational", help="real eigenvalues on (alpha, 0] plus min-max checks")
    p.add_argument("config")
    p.add_argument("--delta-lower", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("interlace", help="eigenvalue comparison of an ordered pencil pair")
    p.add_argument("config_a")
    p.add_argument("config_b")
    p.add_argument("--delta-lower", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="trapezoidal energy trace as CSV")
    p.add_argument("config")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("beam-report", help="beam spectrum bounds and count checks")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"numerical failure: {exc} {exc.details}", file=sys.stderr)
        return EXIT_NUMERICAL
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # the --out file (config reads raise ConfigError)
        print(f"input error: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def __getattr__(name: str):
    # The package's public names resolve on this module too
    # (quadpencil.cli.full_spectrum), each imported on first access.
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
