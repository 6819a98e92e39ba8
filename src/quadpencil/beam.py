"""Pinned-pinned damped beam discretized in the sine eigenbasis.

The transverse model is u_tt + a0 u_rrrr + (d(r) u_r)_rt = 0 on (0,1) with
pinned ends. Projecting onto e_n(r) = sqrt(2) sin(n pi r) makes the
stiffness exactly diagonal, diag(a0 n^4 pi^4), so numerical quadrature of
the damping profile is the only discretization error:
D[m,n] = 2 m n pi^2 * integral d(r) cos(m pi r) cos(n pi r) dr.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidArgumentError
from .pencil import QuadraticPencil, compute_alpha
from .reports import Report
from .variational import (EIGEN_TOL, VERIFY_TOL, IntervalDelta, locate_real_eigenvalues,
                          within_alpha)

PROFILE_SCAN_POINTS = 4097
# Nodes per panel of the composite Gauss-Legendre rule.
GAUSS_PANEL_ORDER = 16


@dataclass(frozen=True)
class DampingProfile:
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
    elif name == "samples":
        values = np.asarray(params["values"], dtype=float)
        if values.ndim != 1 or values.size < 4:
            raise InvalidArgumentError("samples profile needs >= 4 values")
        from scipy.interpolate import CubicSpline

        grid = np.linspace(0.0, 1.0, values.size)
        spline = CubicSpline(grid, values)
        func = spline
        scan = spline(np.linspace(0.0, 1.0, PROFILE_SCAN_POINTS))
        d_min, d_max = float(np.min(scan)), float(np.max(scan))
    else:
        raise InvalidArgumentError(f"unknown damping profile {name!r}")
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


@dataclass(frozen=True)
class BeamBounds:
    """Per-mode enclosures for eigenvalues near zero, valid when
    d_min^2 >= 4 a0. `applicable` is the not-applicable marker."""

    applicable: bool
    d_min: float
    d_max: float
    n_min_count: int
    upper_n: tuple[float, ...]
    lower_n: tuple[float, ...]


def _gauss_nodes(total_points: int):
    """Composite Gauss-Legendre rule on [0,1] with at least total_points nodes."""
    panels = max(1, int(np.ceil(total_points / GAUSS_PANEL_ORDER)))
    base_x, base_w = np.polynomial.legendre.leggauss(GAUSS_PANEL_ORDER)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def discretize_beam(cfg: BeamConfig) -> QuadraticPencil:
    """Galerkin projection onto the first n_modes sine modes.

    The damping entries oscillate with frequency m + n, so the composite
    rule allocates points_per_mode_pair * (m + n) nodes per entry.
    """
    n = cfg.n_modes
    modes = np.arange(1, n + 1)
    a0_matrix = np.diag(cfg.a0 * modes.astype(float) ** 4 * np.pi**4)

    # One shared high-resolution rule covers every (m, n) pair.
    total = max(32, cfg.quadrature.points_per_mode_pair * 2 * n)
    nodes, weights = _gauss_nodes(total)
    d_vals = cfg.damping(nodes)
    if np.any(d_vals <= 0.0):
        raise InvalidArgumentError("damping profile is non-positive at a quadrature node")
    cosines = np.cos(np.outer(modes, np.pi * nodes))  # (n, K)
    weighted = cosines * (weights * d_vals)[None, :]
    integrals = weighted @ cosines.T
    d_matrix = 2.0 * np.outer(modes, modes) * np.pi**2 * integrals
    d_matrix = (d_matrix + d_matrix.T) / 2.0
    return QuadraticPencil(a0_matrix, d_matrix)


def beam_closed_form(cfg: BeamConfig) -> np.ndarray:
    """Exact spectrum for constant damping: (-d +- sqrt(d^2 - 4 a0))/2 * n^2 pi^2."""
    if cfg.damping.d_min != cfg.damping.d_max:
        raise InvalidArgumentError("closed form requires a constant damping profile")
    d = cfg.damping.d_min
    root = np.sqrt(complex(d * d - 4.0 * cfg.a0))
    modes = np.arange(1, cfg.n_modes + 1, dtype=float)
    lam_plus = (-d + root) / 2.0 * modes**2 * np.pi**2
    lam_minus = (-d - root) / 2.0 * modes**2 * np.pi**2
    out = np.concatenate([lam_plus, lam_minus])
    if d * d >= 4.0 * cfg.a0:
        out = out.real.astype(complex)
    return out


def beam_bounds(cfg: BeamConfig) -> BeamBounds:
    """Evaluate the per-mode eigenvalue enclosures and the guaranteed count.

    Not applicable (marker with empty bounds) when d_min^2 < 4 a0.
    """
    d_min, d_max = cfg.damping.d_min, cfg.damping.d_max
    if d_min * d_min < 4.0 * cfg.a0:
        return BeamBounds(False, d_min, d_max, 0, (), ())
    ratio = 4.0 * cfg.a0 / (d_min * d_min)
    bound = 1.0 / (1.0 - np.sqrt(1.0 - ratio)) if ratio < 1.0 else 1.0
    n_min = max(1, int(np.floor(np.sqrt(bound) + 1e-9)))
    modes = np.arange(1, cfg.n_modes + 1, dtype=float)
    upper = (-d_max + np.sqrt(d_max * d_max - 4.0 * cfg.a0)) / 2.0 * np.pi**2 * modes**2
    lower_modes = modes[: min(cfg.n_modes, n_min)]
    lower = (-d_min + np.sqrt(d_min * d_min - 4.0 * cfg.a0)) / 2.0 * np.pi**2 * lower_modes**2
    return BeamBounds(
        applicable=True,
        d_min=d_min,
        d_max=d_max,
        n_min_count=n_min,
        upper_n=tuple(float(u) for u in upper),
        lower_n=tuple(float(v) for v in lower),
    )


def verify_beam_theorem(
    cfg: BeamConfig,
    tol: float = VERIFY_TOL,
    locate_tol: float = EIGEN_TOL,
) -> Report:
    """Run the variational solver on (-d_min pi^2 / 2, 0] and check the
    guaranteed count, the per-mode enclosures and semi-simplicity. A failed
    hypothesis (d_min^2 >= 4 a0, alpha at or left of the interval) ends it."""
    bounds = beam_bounds(cfg)
    report = Report("beam_spectrum_bounds")
    if not bounds.applicable:
        report.add("hypothesis_d_min_sq_ge_4a0", False,
                   d_min=bounds.d_min, a0=cfg.a0)
        return report

    pencil = discretize_beam(cfg)
    alpha = compute_alpha(pencil)
    lower = -bounds.d_min * np.pi**2 / 2.0
    inside = within_alpha(lower, alpha.alpha)
    report.add("alpha_below_interval", inside, alpha=alpha.alpha, interval_lower=lower)
    if not inside:
        return report
    result = locate_real_eigenvalues(pencil, IntervalDelta(lower=lower), locate_tol)

    report.add("spectrum_nonempty", result.n_found >= 1, n_found=result.n_found)
    report.add("count_at_least_guaranteed", result.n_found >= bounds.n_min_count,
               n_found=result.n_found, n_min=bounds.n_min_count)
    for i, lam in enumerate(result.eigenvalues, start=1):
        if i <= len(bounds.upper_n):
            report.add("upper_bound", lam <= bounds.upper_n[i - 1] + tol,
                       n=i, value=float(lam), bound=bounds.upper_n[i - 1])
        if i <= len(bounds.lower_n):
            report.add("lower_bound", lam >= bounds.lower_n[i - 1] - tol,
                       n=i, value=float(lam), bound=bounds.lower_n[i - 1])
    for diag in result.per_eigenvalue:
        report.add("semisimple", diag.semisimple,
                   value=diag.value, multiplicity=diag.multiplicity)
    return report
