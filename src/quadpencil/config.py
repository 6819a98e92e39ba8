"""Problem configuration: JSON schema, validation, pencil construction.

One JSON document describes one problem. Exactly one of the three sources is
populated; matrices are row-major nested arrays; damping profiles are
registry names plus parameters so every fixture stays human-diffable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, InvalidArgumentError
from .pencil import QuadraticPencil

if TYPE_CHECKING:
    from .beam import BeamConfig

SCHEMA_VERSION = 1
SYMMETRY_TOL = 1e-12
# The largest beam.n_modes and random.dim: the pencil's real 2n x 2n companion
# alone is 32 n^2 bytes, so n = 5000 holds 0.8 GB before it is solved.
MAX_DIM = 5000


@dataclass(frozen=True)
class ProblemConfig:
    source: str
    dense: tuple[np.ndarray, np.ndarray] | None = None
    beam: BeamConfig | None = None
    random: dict | None = None
    initial: tuple[np.ndarray, np.ndarray] | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def parse_number(raw, name: str, integer: bool = False, minimum: float | None = None,
                 maximum: float | None = None):
    """One scalar of the input contract: a finite float (a JSON number), or
    with `integer` an int (a JSON integer or a decimal string, as the
    QUADPENCIL_SEED environment variable gives it), at least `minimum` and
    at most `maximum`.

    Anything else, booleans, numeric strings and non-integral floats
    included, raises ConfigError so that it exits with the input-error code.
    """
    kind = "an integer" if integer else "a finite number"
    try:
        value = int(raw) if integer else float(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if integer:
        valid = value is not None and (isinstance(raw, str) or value == raw)
    else:
        valid = value is not None and math.isfinite(value) and not isinstance(raw, str)
    valid = valid and not isinstance(raw, bool)
    _require(valid, f"{name} must be {kind}, got {raw!r}")
    _require(minimum is None or value >= minimum,
             f"{name} must be >= {minimum}, got {raw!r}")
    _require(maximum is None or value <= maximum,
             f"{name} must be <= {maximum}, got {raw!r}")
    return value


def _require_keys(section: dict, allowed: tuple[str, ...], name: str) -> None:
    """Reject the keys of a config object that the schema does not name."""
    unknown = sorted(set(section) - set(allowed))
    _require(not unknown, f"unknown config keys {unknown} in {name}")


def _parse_array(raw, name: str) -> np.ndarray:
    """A finite float array; like parse_number, a boolean or string entry
    is rejected."""
    try:
        entries = np.asarray(raw, dtype=object)
        a = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric array") from exc
    _require(not any(isinstance(x, (bool, str)) for x in entries.flat),
             f"{name} must hold numbers, not booleans or strings")
    _require(bool(np.all(np.isfinite(a))), f"{name} must be finite")
    return a


def _parse_matrix(raw, name: str) -> np.ndarray:
    m = _parse_array(raw, name)
    _require(m.ndim == 2 and m.shape[0] == m.shape[1] and m.shape[0] > 0,
             f"{name} must be a nonempty square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    _require(float(np.max(np.abs(m - m.T))) <= SYMMETRY_TOL * max(scale, 1e-300),
             f"{name} must be symmetric")
    return m


def load_config(path: str | Path) -> ProblemConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def parse_config(doc: dict) -> ProblemConfig:
    _require(isinstance(doc, dict), "config document must be a JSON object")
    _require_keys(doc, ("schema", "source", "dense", "beam", "random", "seed", "initial"), "config")
    _require(doc.get("schema") == SCHEMA_VERSION,
             f"config schema must be {SCHEMA_VERSION}")
    source = doc.get("source")
    _require(source in ("dense", "beam", "random"),
             f"source must be one of dense/beam/random, got {source!r}")
    populated = [k for k in ("dense", "beam", "random") if doc.get(k) is not None]
    _require(populated == [source],
             f"exactly the {source!r} section must be populated, found {populated}")

    seed = parse_number(doc.get("seed", 0), "seed", integer=True, minimum=0)

    dense = beam = None
    random_spec = None
    if source == "dense":
        section = doc["dense"]
        _require(isinstance(section, dict) and "a0" in section and "d" in section,
                 "dense section needs 'a0' and 'd' matrices")
        _require_keys(section, ("a0", "d"), "dense")
        a0 = _parse_matrix(section["a0"], "dense.a0")
        d = _parse_matrix(section["d"], "dense.d")
        _require(a0.shape == d.shape, "dense.a0 and dense.d must have equal shape")
        dense = (a0, d)
    elif source == "beam":
        from .beam import BeamConfig, QuadratureSpec, make_damping_profile

        section = doc["beam"]
        _require(isinstance(section, dict), "beam section must be an object")
        damping, quad_doc = section.get("damping", {}), section.get("quadrature", {})
        _require(isinstance(damping, dict) and isinstance(quad_doc, dict),
                 "beam.damping and beam.quadrature must be objects")
        _require_keys(section, ("a0", "damping", "n_modes", "quadrature"), "beam")
        _require_keys(damping, ("profile", "params"), "beam.damping")
        _require_keys(quad_doc, ("rule", "points_per_mode_pair"), "beam.quadrature")
        try:
            # Every damping parameter is a number but the `samples` array.
            damping = {**damping, "params": {
                key: (_parse_array if key == "values" else parse_number)(
                    raw, f"beam.damping.params.{key}")
                for key, raw in dict(damping.get("params", {})).items()
            }}
            profile = make_damping_profile(damping)
            rule = str(quad_doc.get("rule", "gauss"))
            if rule != "gauss":
                raise InvalidArgumentError(f"unknown quadrature rule {rule!r}")
            quadrature = QuadratureSpec(points_per_mode_pair=parse_number(
                quad_doc.get("points_per_mode_pair", 8),
                "beam.quadrature.points_per_mode_pair", integer=True))
            beam = BeamConfig(
                a0=parse_number(section.get("a0", 1.0), "beam.a0"),
                damping=profile,
                n_modes=parse_number(section.get("n_modes", 12), "beam.n_modes", integer=True,
                                     maximum=MAX_DIM),
                quadrature=quadrature,
            )
        except (InvalidArgumentError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid beam section: {exc}") from exc
    else:
        section = doc["random"]
        _require(isinstance(section, dict) and "dim" in section,
                 "random section needs at least 'dim'")
        _require_keys(section, ("dim", "seed", "damping_scale", "ensure_real_root_cone"), "random")
        cone = section.get("ensure_real_root_cone", False)
        _require(isinstance(cone, bool),
                 f"random.ensure_real_root_cone must be true or false, got {cone!r}")
        random_spec = {
            "dim": parse_number(section["dim"], "random.dim", integer=True, minimum=1,
                                maximum=MAX_DIM),
            "seed": parse_number(section.get("seed", seed), "random.seed",
                                 integer=True, minimum=0),
            "damping_scale": parse_number(section.get("damping_scale", 1.0),
                                          "random.damping_scale"),
            "ensure_real_root_cone": cone,
        }

    initial = None
    if doc.get("initial") is not None:
        init = doc["initial"]
        _require(isinstance(init, dict) and "z0" in init and "w0" in init,
                 "initial section needs 'z0' and 'w0'")
        _require_keys(init, ("z0", "w0"), "initial")
        z0 = _parse_array(init["z0"], "initial.z0")
        w0 = _parse_array(init["w0"], "initial.w0")
        _require(z0.ndim == 1 and w0.shape == z0.shape,
                 "initial.z0 and initial.w0 must be equal-length vectors")
        initial = (z0, w0)

    return ProblemConfig(
        source=source,
        dense=dense,
        beam=beam,
        random=random_spec,
        initial=initial,
    )


def random_pencil(
    dim: int,
    seed: int,
    damping_scale: float = 1.0,
    ensure_real_root_cone: bool = False,
) -> QuadraticPencil:
    """Seeded random pencil: orthogonally rotated stiffness spectrum in
    [0.5, 5], Wishart-type damping.

    With ensure_real_root_cone the damping is rescaled until the
    nonemptiness criterion |A0^{-1/2} D A0^{-1/2}| > 2 |A0^{-1/2}| holds
    with a 25% margin, so the real-root cone is certified nonempty. The
    scale is decided before the one construction
    (QuadraticPencil._with_cone_margin).
    """
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    a0 = q @ np.diag(rng.uniform(0.5, 5.0, dim)) @ q.T
    a0 = (a0 + a0.T) / 2.0
    b = rng.standard_normal((dim, dim))
    d = damping_scale * (b @ b.T) / dim
    d = (d + d.T) / 2.0
    if ensure_real_root_cone:
        return QuadraticPencil._with_cone_margin(a0, d, 2.5)
    return QuadraticPencil(a0, d)


def build_pencil(config: ProblemConfig) -> QuadraticPencil:
    if config.source == "dense":
        a0, d = config.dense
        try:
            return QuadraticPencil(a0, d)
        except InvalidArgumentError as exc:
            raise ConfigError(f"invalid dense pencil: {exc}") from exc
    if config.source == "beam":
        from .beam import discretize_beam

        return discretize_beam(config.beam)
    spec = config.random
    return random_pencil(
        spec["dim"], spec["seed"], spec["damping_scale"],
        spec["ensure_real_root_cone"],
    )
