"""Command-line front end: every theorem check reproducible from the shell.

Exit codes: 0 all checks pass, 1 a verified property failed, 2 input or
configuration error, 3 numerical failure. Reruns with identical config and
seed produce byte-identical outputs except for the timestamp line. The
QUADPENCIL_SEED environment variable overrides random.seed, the only seed
drawn from; an invalid value is an input error for every config.
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
# Rows of the simulate CSV formatted and written at once: memory stays flat in
# the step count, and a chunk's temporaries (under 1 MB) are reused, not faulted in again.
CSV_CHUNK_ROWS = 1024
CSV_PRECISION = (12, 16, 16)  # the %g digits (<= 16) of time, energy and dissipation


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


@functools.cache
def _csv_tables():
    """_csv_records' tables, built on first use: the precisions, 0..9999 in ASCII (and without
    trailing zeros), the first m of 16 bytes, '.' at byte m, [-][0.0…0], 10^k, its high half."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    chars = digits.astype(np.uint8) + 48
    quads = np.concatenate([chars, chars * (np.cumsum(digits[:, ::-1], 1)[:, ::-1] > 0)])
    m = np.arange(17)[:, None]
    masks = ((np.arange(16) < m) * 255).astype(np.uint8).view("<u8").T.copy()
    dots = ((np.arange(16) == m) * (m > 0) * 46).astype(np.uint8).view("<u8").T.copy()
    prefixes = [b"-" * n + b"0.000"[:1 - e] * (e < 0) for n in (0, 1) for e in range(-4, 1)]
    powers = np.array([float(10**k) for k in range(20)])
    split = powers * 134217729.0  # 2^27 + 1: Veltkamp's split
    return (np.array(CSV_PRECISION)[:, None], quads.view("<u4").ravel(), masks, dots,
            np.array(prefixes, "S8").view("<u8"), np.stack([powers, split - (split - powers)]))


# Python's own %g of a (precision, value) pair, at most 23 bytes: what _csv_records leaves.
_percent_g = b"%.*g".__mod__


def _csv_records(block: np.ndarray) -> np.ndarray:
    """'%.{p}g' % v for each v of `block` (3 x rows, p from CSV_PRECISION) as rows x 3
    records of 32 NUL-padded bytes, each ending in its separator. A fixed-point v (decimal
    exponent e in [-4, p-1]) is rounded exactly: Dekker's TwoProduct (Numer. Math. 18, 1971;
    no FMA) gives |v| 10^(p-1-e) as hi + lo, whose integer part q has p digits. Zero, inf,
    nan, the exponent form, a misjudged e (q outside [10^(p-1), 10^p)) and a remainder
    within 1e-9 of 1/2 (a tie, which % rounds half-even) go to _percent_g."""
    p, quads, masks, dots, prefixes, powers = _csv_tables()
    a = np.abs(block)
    with np.errstate(all="ignore"):  # the values left to % compute garbage
        e = np.floor(np.log10(a)).astype(np.int64)
        scale, s_hi = powers.take(p - 1 - e, axis=1, mode="clip")  # 10^k is a double, k <= 22
        hi = a * scale
        c = a * 134217729.0  # Veltkamp's split, as for 10^k
        a_hi = c - (c - a)
        a_lo, s_lo = a - a_hi, scale - s_hi
        lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
        q = np.floor(hi)
        r = (hi - q) + lo
        carry = np.floor(r)
        q = q.astype(np.int64) + carry.astype(np.int64)
        r -= carry
    least, high = 10 ** (p - 1), 10 ** p
    fast = (e >= -4) & (q >= least) & (q < high) & (np.abs(r - 0.5) > 1e-9)
    q += r > 0.5
    up = q == high  # 9.99…95 rounds up to the next exponent
    e += up
    fast &= e < p
    q = np.where(up, least, q) * 10 ** (16 - p)  # 16 digits, the last 16 - p zeros
    half = np.stack(np.divmod(q, 10**8), -1)
    quad = np.stack(np.divmod(half, 10000), -1).reshape(*block.shape, 4)
    low = half[..., 1] == 0  # the quads from the last nonzero one on drop their trailing zeros
    after = np.stack([low & (quad[..., 1] == 0), low, quad[..., 3] == 0, np.ones_like(low)], -1)
    full, stripped = quads.take(np.stack([quad, quad + 10000 * after]), mode="clip").view("<u8")
    # The first m digits are the integer part; the fraction moves a byte up for the point.
    m = np.maximum(e + 1, 0)
    head, tail = masks[0].take(m, mode="clip"), masks[1].take(m, mode="clip")
    frac0, frac1 = stripped[..., 0] & ~head, stripped[..., 1] & ~tail
    point = m * ((frac0 | frac1) != 0)
    out = np.empty((block.shape[1], 3, 4), "<u8").transpose(1, 0, 2)
    out[..., 0] = prefixes.take(5 * (block < 0) + np.minimum(e, 0) + 4, mode="clip")
    out[..., 1] = dots[0].take(point, mode="clip") | full[..., 0] & head | frac0 << 8
    out[..., 2] = dots[1].take(point, mode="clip") | full[..., 1] & tail | frac1 << 8 | frac0 >> 56
    out[..., 3] = np.where(fast, frac1 >> 56, 0) | np.array([[44], [44], [10]], "<u8") << 56
    pairs = zip(p.repeat(block.shape[1], 1)[~fast].tolist(), block[~fast].tolist())
    out[~fast, :3] = np.array(list(map(_percent_g, pairs)), "S24").view("<u8").reshape(-1, 3)
    return out.transpose(1, 0, 2)


def _csv_chunks(trace) -> Iterator[str]:
    """The simulate CSV below its timestamp line: the header, then the rows
    in chunks of CSV_CHUNK_ROWS, the records of _csv_records less their NULs."""
    yield "time,energy,dissipation\n"
    columns = (trace.times, trace.energies, trace.dissipation)
    for start in range(0, trace.times.size, CSV_CHUNK_ROWS):
        records = _csv_records(np.stack([c[start:start + CSV_CHUNK_ROWS] for c in columns]))
        yield records.tobytes().translate(None, b"\0").decode("ascii")


def _load(path: str) -> ProblemConfig:
    from .config import load_config, parse_number

    config = load_config(path)
    env_seed = os.environ.get("QUADPENCIL_SEED")
    if env_seed is not None:
        seed = parse_number(env_seed, "QUADPENCIL_SEED", integer=True, minimum=0)
        if config.random is not None:
            config = replace(config, random={**config.random, "seed": seed})
    return config


def cmd_spectrum(args) -> int:
    from .config import build_pencil
    from .linearization import (build_linearization, check_pencil_equivalence, full_spectrum,
                                resolvent_region_check, structural_report)
    from .pencil import compute_delta_gamma
    from .reports import _jsonable

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
            {**lam, "algebraic_multiplicity": am, "geometric_multiplicity": gm}
            for lam, am, gm in zip(*_jsonable([
                spectrum.eigenvalues, spectrum.algebraic_multiplicities,
                spectrum.geometric_multiplicities]))
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
    from .reports import _jsonable
    from .variational import IntervalDelta, locate_real_eigenvalues, verify_minmax

    config = _load(args.config)
    pencil = build_pencil(config)
    scalars = compute_scalars(pencil)
    interval = IntervalDelta.inside(scalars.alpha, args.delta_lower, pencil.d_norm)
    result = locate_real_eigenvalues(pencil, interval, EIGEN_TOL)
    minmax = verify_minmax(pencil, result)
    ok = minmax.ok
    fields = _jsonable(scalars)  # alpha is null for an empty real-root cone
    alpha_lower = fields.pop("alpha_lower")
    payload = {
        "schema": 1,
        "command": "variational",
        **fields,
        "alpha_bracket": None if fields["alpha"] is None else [alpha_lower, fields["alpha"]],
        "interval": {"lower": interval.lower, "upper": 0.0},
        "n_found": result.n_found,
        "eigenvalues": [_jsonable(vars(diag)) for diag in result.per_eigenvalue],
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
    from .reports import _jsonable

    config = _load(args.config)
    if config.source != "beam":
        raise ConfigError("beam-report requires a config with source = beam")
    cfg = config.beam
    report = verify_beam_theorem(cfg)
    payload = {
        "schema": 1,
        "command": "beam-report",
        "bounds": _jsonable(beam_bounds(cfg)),
        "report": report.to_dict(),
        "ok": report.ok,
    }
    if cfg.damping.d_min == cfg.damping.d_max:
        payload["closed_form"] = _jsonable(beam_closed_form(cfg))
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a token after an option for another option when it starts
    # with '-' but is not of the form -2 or -.5 (so -2e0 and -inf), and every
    # lower end is negative: pass the value (after the option or a prefix of
    # it) in the one-token form it reads.
    for i in reversed(range(len(argv) - 1)):
        if (len(argv[i]) > 2 and "--delta-lower".startswith(argv[i])
                and not argv[i + 1].startswith("--")):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
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
