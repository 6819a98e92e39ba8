"""Pinned-pinned damped beam discretized in the sine eigenbasis.

The transverse model is u_tt + a0 u_rrrr + (d(r) u_r)_rt = 0 on (0,1) with
pinned ends. Projecting onto e_n(r) = sqrt(2) sin(n pi r) makes the
stiffness exactly diagonal, diag(a0 n^4 pi^4), so numerical quadrature of
the damping profile is the only discretization error:
D[m,n] = 2 m n pi^2 * integral d(r) cos(m pi r) cos(n pi r) dr
       = m n pi^2 (c_|m-n| + c_(m+n)),  c_k = integral d(r) cos(k pi r) dr.
The 2n + 1 moments c_k come from one composite Gauss-Legendre rule of
K = 16 P nodes (16 n by default) in two (2n+1) x 16 x P products, so the
assembly costs O(n K) flops, not the O(n^2 K) of a product of n x K cosine
matrices. Its (2n+1) x P tables (the angle indices, their cosines and
sines, the two products) hold O(n P) entries, O(n^2) at the default P = n:
at n = 1000 the assembly peaks at 60 MB (tracemalloc), 16 MB of it A0 and D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .config import MAX_DIM
from .errors import InvalidArgumentError
from .pencil import EIGEN_TOL, VERIFY_TOL, QuadraticPencil, alpha_brackets
# Not called here: perfbench/tracing.py patches compute_alpha at each module
# that imports it, and its tests check this one.
from .pencil import compute_alpha  # noqa: F401

if TYPE_CHECKING:
    from .reports import Report

PROFILE_SCAN_POINTS = 4097
# The parameters each damping profile reads; any other key is an error.
PROFILE_PARAMS = {"constant": ("value",), "four_plus_sin": (), "affine": ("intercept", "slope"),
                  "samples": ("values",)}
# Nodes per panel of the composite Gauss-Legendre rule, and the rule on [-1, 1]:
# the positive nodes and their weights, mirrored, bitwise equal to
# np.polynomial.legendre.leggauss(16) (whose import costs every process ~5 ms).
GAUSS_PANEL_ORDER = 16
_HALF_X = np.array([
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_HALF_W = np.array([
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_GAUSS_X = np.concatenate([-_HALF_X[::-1], _HALF_X])
_GAUSS_W = np.concatenate([_HALF_W[::-1], _HALF_W])


class DampingProfile(NamedTuple):
    """Positive C^1 damping coefficient on [0,1].

    Built through `make_damping_profile` from a registry name plus
    parameters; `samples` profiles interpolate uniform data with a cubic
    spline (C^2, so comfortably C^1).
    """

    name: str
    params: dict
    func: Callable[[np.ndarray], np.ndarray]
    d_min: float
    d_max: float

    def __call__(self, r):
        return self.func(np.asarray(r, dtype=float))


def make_damping_profile(spec: dict) -> DampingProfile:
    name = spec.get("profile")
    params = dict(spec.get("params", {}))
    if name not in PROFILE_PARAMS:
        raise InvalidArgumentError(f"unknown damping profile {name!r}")
    unknown = sorted(set(params) - set(PROFILE_PARAMS[name]))
    if unknown:
        raise InvalidArgumentError(f"unknown params {unknown} for damping profile {name!r}")
    missing = [key for key in PROFILE_PARAMS[name] if key not in params and key != "slope"]
    if missing:
        raise InvalidArgumentError(f"missing params {missing} for damping profile {name!r}")
    if name == "constant":
        value = float(params["value"])
        func = lambda r: np.full_like(np.asarray(r, float), value)
        d_min = d_max = value
    elif name == "four_plus_sin":
        func = lambda r: 4.0 + np.sin(np.pi * np.asarray(r, float))
        d_min, d_max = 4.0, 5.0
    elif name == "affine":
        intercept = float(params["intercept"])
        slope = float(params.get("slope", 0.0))
        func = lambda r: intercept + slope * np.asarray(r, float)
        ends = (intercept, intercept + slope)
        d_min, d_max = min(ends), max(ends)
    else:
        values = np.asarray(params["values"], dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise InvalidArgumentError("samples profile needs >= 4 values")
        from scipy.interpolate import CubicSpline

        grid = np.linspace(0.0, 1.0, values.size)
        spline = CubicSpline(grid, values)
        func = spline
        scan = spline(np.linspace(0.0, 1.0, PROFILE_SCAN_POINTS))
        d_min, d_max = float(np.min(scan)), float(np.max(scan))
    if d_min <= 0.0:
        raise InvalidArgumentError(
            f"damping must stay positive on [0,1]; profile {name!r} reaches {d_min}"
        )
    return DampingProfile(name=name, params=params, func=func,
                          d_min=d_min, d_max=d_max)


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_mode_pair: int = 8

    def __post_init__(self):
        if self.points_per_mode_pair < 1:
            raise InvalidArgumentError("points_per_mode_pair must be >= 1")


@dataclass(frozen=True)
class BeamConfig:
    a0: float
    damping: DampingProfile
    n_modes: int
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.a0 <= 0.0:
            raise InvalidArgumentError("stiffness coefficient a0 must be positive")
        if self.n_modes < 1:
            raise InvalidArgumentError("n_modes must be >= 1")
        # discretize_beam's (2n + 1) x P n / 8 tables: as big as P = 8's at MAX_DIM.
        size = self.quadrature.points_per_mode_pair * self.n_modes
        if size > 8 * MAX_DIM:
            raise InvalidArgumentError(
                f"points_per_mode_pair * n_modes must be <= {8 * MAX_DIM}, got {size}")


class BeamBounds(NamedTuple):
    """Per-mode enclosures for eigenvalues near zero, valid when
    d_min^2 >= 4 a0. `applicable` is the not-applicable marker."""

    applicable: bool
    d_min: float
    d_max: float
    n_min_count: int
    upper_n: tuple[float, ...]
    lower_n: tuple[float, ...]


def discretize_beam(cfg: BeamConfig) -> QuadraticPencil:
    """Galerkin projection onto the first n_modes sine modes.

    The damping entries oscillate with frequency m + n, so one shared
    composite Gauss-Legendre rule of P panels with GAUSS_PANEL_ORDER nodes
    each, at least points_per_mode_pair * 2 n nodes in all, covers every
    pair. cos(a) cos(b) = (cos(a - b) + cos(a + b)) / 2 turns the entries
    into D[m,n] = pi^2 m n (c_|m-n| + c_(m+n)) with the 2n + 1 cosine
    moments c_k = sum_j w_j d(r_j) cos(k pi r_j). On panel p the nodes are
    r = mid_p + h x_i (mid_p = (p + 1/2) / P, h = 1 / (2P)), so
    cos(k pi r) = cos(k pi mid_p) cos(k pi h x_i) - sin(k pi mid_p) sin(k pi h x_i),
    and the moments are two (2n+1) x 16 x P products. k pi mid_p is
    pi j / (2P) with the integer j = k (2p + 1) mod 4P, so its cosines and
    sines are read from a table of 4P angles in [0, 2 pi): no n x K matrix
    is built and no argument exceeds 2 pi. The (2n+1) x P tables are the
    assembly's memory, O(n^2) at the default P = n (module docstring).
    """
    n = cfg.n_modes
    modes = np.arange(1, n + 1)
    a0_matrix = np.diag(cfg.a0 * modes.astype(float) ** 4 * np.pi**4)

    total = max(32, cfg.quadrature.points_per_mode_pair * 2 * n)
    panels = -(-total // GAUSS_PANEL_ORDER)
    h = 0.5 / panels
    mid = (np.arange(panels) + 0.5) / panels
    d_vals = cfg.damping(mid[:, None] + h * _GAUSS_X)  # (P, 16)
    if np.any(d_vals <= 0.0):
        raise InvalidArgumentError("damping profile is non-positive at a quadrature node")
    weighted = (d_vals * (h * _GAUSS_W)).T  # (16, P)
    k = np.arange(2 * n + 1)
    local = np.outer(np.pi * h * k, _GAUSS_X)  # (2n+1, 16)
    turns = np.outer(k, 2 * np.arange(panels) + 1) % (4 * panels)  # (2n+1, P)
    angles = np.pi * np.arange(4 * panels) / (2 * panels)
    moments = (np.einsum("kp,kp->k", np.cos(angles)[turns], np.cos(local) @ weighted)
               - np.einsum("kp,kp->k", np.sin(angles)[turns], np.sin(local) @ weighted))
    d_matrix = np.pi**2 * np.outer(modes, modes) * (
        moments[np.abs(modes[:, None] - modes)] + moments[modes[:, None] + modes])
    return QuadraticPencil(a0_matrix, d_matrix)


def beam_closed_form(cfg: BeamConfig) -> np.ndarray:
    """Exact spectrum for constant damping: (-d +- sqrt(d^2 - 4 a0))/2 * n^2 pi^2,
    the + root as -2 a0 / (d + sqrt(d^2 - 4 a0)), which does not cancel."""
    if cfg.damping.d_min != cfg.damping.d_max:
        raise InvalidArgumentError("closed form requires a constant damping profile")
    d = cfg.damping.d_min
    root = np.sqrt(complex(d * d - 4.0 * cfg.a0))
    modes = np.arange(1, cfg.n_modes + 1, dtype=float)
    lam_plus = -2.0 * cfg.a0 / (d + root) * modes**2 * np.pi**2
    lam_minus = (-d - root) / 2.0 * modes**2 * np.pi**2
    out = np.concatenate([lam_plus, lam_minus])
    if d * d >= 4.0 * cfg.a0:
        out = out.real.astype(complex)
    return out


def beam_bounds(cfg: BeamConfig) -> BeamBounds:
    """Evaluate the per-mode eigenvalue enclosures and the guaranteed count.

    Not applicable (marker with empty bounds) when d_min^2 < 4 a0; a
    damping whose square or guaranteed count overflows is an input error.
    """
    d_min, d_max = cfg.damping.d_min, cfg.damping.d_max
    if d_min * d_min < 4.0 * cfg.a0:
        return BeamBounds(False, d_min, d_max, 0, (), ())
    ratio = 4.0 * cfg.a0 / (d_min * d_min)
    # 1 / (1 - sqrt(1 - ratio)) without its cancellation, which makes it
    # 1 / 0 once 1 - ratio rounds to 1.
    bound = (1.0 + math.sqrt(1.0 - ratio)) / ratio if ratio > 0.0 else math.inf
    if not (math.isfinite(d_max * d_max) and math.isfinite(bound)):
        raise InvalidArgumentError(
            f"beam bounds are not finite for damping up to {d_max} and a0 = {cfg.a0}")
    n_min = max(1, int(np.floor(np.sqrt(bound) + 1e-9)))
    modes = np.arange(1, cfg.n_modes + 1, dtype=float)
    # Each mode's root (-d + sqrt(d^2 - 4 a0)) / 2 pi^2 k^2 as a quotient: the
    # difference cancels (every digit at d = 1e9, a0 = 1), the sum does not.
    upper = -2.0 * cfg.a0 * np.pi**2 * modes**2 / (d_max + math.sqrt(d_max**2 - 4.0 * cfg.a0))
    lower_modes = modes[: min(cfg.n_modes, n_min)]
    lower = -2.0 * cfg.a0 * np.pi**2 * lower_modes**2 / (d_min + math.sqrt(d_min**2 - 4.0 * cfg.a0))
    return BeamBounds(
        applicable=True,
        d_min=d_min,
        d_max=d_max,
        n_min_count=n_min,
        upper_n=tuple(float(u) for u in upper),
        lower_n=tuple(float(v) for v in lower),
    )


def verify_beam_theorem(cfg: BeamConfig) -> Report:
    """Run the variational solver on (-d_min pi^2 / 2, 0] at EIGEN_TOL and
    check the guaranteed count, the per-mode enclosures (with the slack
    VERIFY_TOL) and semi-simplicity. A failed hypothesis (d_min^2 >= 4 a0,
    alpha at or left of the interval) ends it.

    The alpha hypothesis is decided by the first bracket of alpha_brackets
    whose upper end passes within_alpha or whose witnessed lower end fails
    it, and otherwise by the last bracket's upper end (compute_alpha's).
    Either way the verdict is that of compute_alpha's upper end U: the gate
    within_alpha(lower, a) holds exactly when lower >= a - s max(1, |a|)
    (s = ALPHA_GATE_SLACK), and a - s max(1, |a|) is nondecreasing in a, so
    the gate passes for every a below one that passes and fails for every a
    above one that fails. The upper ends never increase, so U is at most
    the upper end that passed; a lower end is p- at a witness, at most
    sup p- = alpha <= U, so U is at least the lower end that failed. The
    check's data carry the bracket that decided it."""
    from .reports import Report
    from .variational import IntervalDelta, locate_real_eigenvalues, within_alpha

    bounds = beam_bounds(cfg)
    report = Report("beam_spectrum_bounds")
    if not bounds.applicable:
        report.add("hypothesis_d_min_sq_ge_4a0", False,
                   d_min=bounds.d_min, a0=cfg.a0)
        return report

    pencil = discretize_beam(cfg)
    lower = -bounds.d_min * np.pi**2 / 2.0
    for alpha in alpha_brackets(pencil):
        if within_alpha(lower, alpha.upper) or not within_alpha(lower, alpha.lower):
            break
    inside = within_alpha(lower, alpha.upper)
    report.add("alpha_below_interval", inside, alpha=alpha.upper,
               alpha_bracket=[alpha.lower, alpha.upper], interval_lower=lower)
    if not inside:
        return report
    result = locate_real_eigenvalues(pencil, IntervalDelta(lower=lower), EIGEN_TOL)

    report.add("spectrum_nonempty", result.n_found >= 1, n_found=result.n_found)
    report.add("count_at_least_guaranteed", result.n_found >= bounds.n_min_count,
               n_found=result.n_found, n_min=bounds.n_min_count)
    for i, lam in enumerate(result.eigenvalues, start=1):
        if i <= len(bounds.upper_n):
            report.add("upper_bound", lam <= bounds.upper_n[i - 1] + VERIFY_TOL,
                       n=i, value=float(lam), bound=bounds.upper_n[i - 1])
        if i <= len(bounds.lower_n):
            report.add("lower_bound", lam >= bounds.lower_n[i - 1] - VERIFY_TOL,
                       n=i, value=float(lam), bound=bounds.lower_n[i - 1])
    for diag in result.per_eigenvalue:
        report.add("semisimple", diag.semisimple,
                   value=diag.value, multiplicity=diag.multiplicity)
    return report
