"""Time evolution of the damped second-order system and energy diagnostics.

The first-order system is integrated with the trapezoidal one-step scheme in
whitened coordinates. For the skew part the scheme is a Cayley transform
(exactly energy-preserving); the damping block makes each step strictly
contractive, so the squared energy norm obeys the discrete identity
E_{k+1} - E_k = -2 dt d[w_{k+1/2}] up to the roundoff of the propagator.

The step matrix I - dt/2 A is LU-factorised once and one solve with
I + dt/2 A as right-hand side gives the propagator M of one step. States are
rows of a block: the first block is filled by doubling, rows[f:2f] =
rows[:f] @ (M^f)^T, and each later block is one product of the block before
it with (M^B)^T, so no Python code runs per step. The energies, dissipation
rates and snapshots of a full block are taken together by batched products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ComputationError, InvalidArgumentError
from .linearization import build_linearization, companion_eig
from .pencil import QuadraticPencil
from .reports import Report

# Steps a run may take: its times, energies and dissipation rates alone are
# 24 bytes a step, so 1e8 steps hold 2.4 GB before any state is computed.
MAX_STEPS = 10**8
# Bytes of a block of states, whose energies are taken together; simulate
# holds the current and the previous block, so memory stays flat in the step
# count.
STATE_BLOCK_BYTES = 1 << 18
# Energy rise and per-step identity defect allowed, relative to E(0).
ENERGY_REL_TOL = 1e-10
# spectral_abscissa_consistency: the tail share of the trace that is fitted,
# and the relative and absolute slack of the fitted slope.
ABSCISSA_FIT_FRACTION = 0.3
ABSCISSA_REL_TOL = 0.05
ABSCISSA_SLOPE_ATOL = 1e-6


def block_length(dim: int, steps: int) -> int:
    """States per block of a run of `steps` steps: the largest power of two B
    that fits STATE_BLOCK_BYTES as rows of 2 dim floats, is no longer than
    the smallest power of two holding the run's steps + 1 states, and whose
    log2(B) squarings of the 2 dim x 2 dim propagator cost no more flops
    than the `steps` products with it (log2(B) 2 dim <= steps)."""
    rows = max(1, STATE_BLOCK_BYTES // (16 * dim))
    return 1 << min(rows.bit_length() - 1, steps.bit_length(), steps // (2 * dim))


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] @ y[i] for every row i, each by the BLAS dot of that expression."""
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _row_matvecs(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x[i] for every row i, each by the BLAS gemv of that expression."""
    return np.matmul(m, x[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class SimulationTrace:
    """Energy history of one trapezoidal run.

    energies holds E(t) = |A0^{1/2} z|^2 + |w|^2; dissipation holds the
    instantaneous rate 2 d[w(t)] at the sample times. states optionally
    keeps (z, w) histories downsampled by snapshot_stride.
    """

    times: np.ndarray
    energies: np.ndarray
    dissipation: np.ndarray
    snapshot_stride: int = 0
    states: tuple[np.ndarray, np.ndarray] | None = None


def simulate(
    pencil: QuadraticPencil,
    z0,
    w0,
    t_final: float,
    dt: float,
    snapshot_stride: int = 0,
) -> SimulationTrace:
    """Integrate from (z0, w0) to t_final with fixed step dt.

    A t_final below dt (including zero) yields the single initial record;
    a run of more than MAX_STEPS steps is rejected before anything is
    allocated.

    The states are those of one LU solve per step up to rounding. In
    whitened coordinates u = (A0^{1/2} z, w), state k is held to the
    forward-error bound |u_k - u_k^ref| <= (k + 1) 2n eps cond2(I - dt/2 A)
    |u_0|: M carries the rounding of one solve, every power of the exact M
    is a contraction, and the power of M that reaches state k is formed by
    at most k + 1 rounded products.
    """
    if not (np.isfinite(t_final) and np.isfinite(dt)):
        raise InvalidArgumentError("t_final and dt must be finite")
    if dt <= 0.0:
        raise InvalidArgumentError("dt must be positive")
    if t_final < 0.0:
        raise InvalidArgumentError("t_final must be nonnegative")
    ratio = t_final / dt + 1e-12  # inf when the quotient overflows
    if not ratio < MAX_STEPS + 1:
        raise InvalidArgumentError(
            f"t_final / dt = {t_final / dt:.3g} steps exceeds the limit of {MAX_STEPS}")
    steps = int(ratio)
    z0 = np.asarray(z0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    n = pencil.dim
    if z0.shape != (n,) or w0.shape != (n,):
        raise InvalidArgumentError(
            f"initial data shapes {z0.shape}, {w0.shape} do not match dimension {n}"
        )
    if not (np.isfinite(z0).all() and np.isfinite(w0).all()):
        raise InvalidArgumentError("initial data must be finite")

    system = build_linearization(pencil)
    a = system.a_matrix
    eye = np.eye(2 * n)
    try:
        lu, piv = scipy.linalg.lu_factor(eye - (dt / 2.0) * a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - matrix is regular
        raise ComputationError("trapezoidal step matrix is singular") from exc
    getrs, = scipy.linalg.get_lapack_funcs(("getrs",), (lu,))
    propagator, info = getrs(lu, piv, eye + (dt / 2.0) * a, overwrite_b=True)
    if info != 0:
        raise ComputationError("trapezoidal step solve failed", info=info)

    times = dt * np.arange(steps + 1)
    energies = np.empty(steps + 1)
    dissipation = np.empty(steps + 1)
    keep = snapshot_stride > 0
    if keep:
        zs = np.empty((steps // snapshot_stride + 1, n))
        ws = np.empty_like(zs)

    size = block_length(n, steps)
    block = np.empty((size, 2 * n))
    before = np.empty_like(block)  # the previous block
    block[0] = np.concatenate([pencil.a0_sqrt @ z0, w0])
    power, filled = propagator.T, 1  # power = (M^filled)^T
    while filled < size:
        np.matmul(block[:filled], power, out=block[filled:2 * filled])
        filled *= 2
        if filled < size or steps >= size:  # the next fill or block needs it
            power = power @ power
    for start in range(0, steps + 1, size):
        rows = block[: min(size, steps + 1 - start)]
        if start:
            np.matmul(before[: len(rows)], power, out=rows)
        stop = start + len(rows)
        w = rows[:, n:]
        energies[start:stop] = np.einsum("ij,ij->i", rows, rows)
        dissipation[start:stop] = 2.0 * np.einsum("ij,ij->i", w @ pencil.d_matrix, w)
        if keep:
            picked = rows[(-start) % snapshot_stride::snapshot_stride]
            j = -(-start // snapshot_stride)  # snapshots taken before this block
            zs[j:j + len(picked)] = picked[:, :n] @ pencil.a0_inv_sqrt.T
            ws[j:j + len(picked)] = picked[:, n:]
        block, before = before, block

    states = (zs, ws) if keep else None
    return SimulationTrace(
        times=times,
        energies=energies,
        dissipation=dissipation,
        snapshot_stride=snapshot_stride if keep else 0,
        states=states,
    )


def energy_monotonicity_report(trace: SimulationTrace) -> Report:
    """Per-step non-increase of the energy, to ENERGY_REL_TOL * E(0), and
    nonnegativity of the dissipation rate."""
    report = Report("energy_monotonicity")
    e0 = float(trace.energies[0]) if trace.energies.size else 0.0
    rises = np.diff(trace.energies)
    worst = float(np.max(rises)) if rises.size else 0.0
    report.add("energy_non_increasing", worst <= ENERGY_REL_TOL * max(e0, 1e-300),
               worst_rise=worst, initial_energy=e0, bound=ENERGY_REL_TOL * e0)
    d_scale = float(np.max(np.abs(trace.dissipation))) if trace.dissipation.size else 0.0
    d_min = float(np.min(trace.dissipation)) if trace.dissipation.size else 0.0
    report.add("dissipation_nonnegative", d_min >= -1e-12 * max(d_scale, 1e-300),
               min_dissipation=d_min, scale=d_scale)
    return report


def discrete_energy_identity_report(pencil: QuadraticPencil, trace: SimulationTrace) -> Report:
    """Signed per-step balance E_{k+1} - E_k = -2 dt d[w_{k+1/2}], to
    ENERGY_REL_TOL * E(0).

    Requires a trace recorded with snapshot_stride == 1.
    """
    if trace.states is None or trace.snapshot_stride != 1:
        raise InvalidArgumentError("identity check needs snapshot_stride=1 states")
    report = Report("discrete_energy_identity")
    _, ws = trace.states
    dt = float(trace.times[1] - trace.times[0]) if trace.times.size > 1 else 0.0
    e0 = float(trace.energies[0])
    w_mid = (ws[:-1] + ws[1:]) / 2.0
    balance = (np.diff(trace.energies)
               + 2.0 * dt * _row_dots(w_mid, _row_matvecs(pencil.d_matrix, w_mid)))
    worst = float(np.max(np.abs(balance))) if balance.size else 0.0
    report.add("per_step_identity", worst <= ENERGY_REL_TOL * max(e0, 1e-300),
               worst_defect=worst, initial_energy=e0, bound=ENERGY_REL_TOL * e0)
    return report


def spectral_abscissa_consistency(pencil: QuadraticPencil, trace: SimulationTrace) -> Report:
    """Fit the tail slope of log E(t), over the last ABSCISSA_FIT_FRACTION of
    the trace, against twice the spectral abscissa.

    The heuristic pre-condition t_final >= 10 / |abscissa| keeps the fit in
    the regime where the slowest mode dominates; it is reported as its own
    check (vacuous for the undamped case, whose abscissa is zero).
    """
    report = Report("spectral_abscissa_consistency")
    abscissa = float(np.max(companion_eig(build_linearization(pencil).a_matrix).values.real))
    t_final = float(trace.times[-1]) if trace.times.size else 0.0

    if abs(abscissa) < 1e-12:
        tail = trace.energies[trace.energies > 0.0]
        drift = 0.0
        if tail.size >= 2:
            drift = abs(np.log(float(trace.energies[-1]) / float(trace.energies[0]))) / max(t_final, 1e-300)
        report.add("undamped_energy_flat", drift <= ABSCISSA_SLOPE_ATOL,
                   abscissa=abscissa, log_drift_rate=drift)
        return report

    needed = 10.0 / abs(abscissa)
    report.add("trace_long_enough", t_final >= needed,
               t_final=t_final, needed=needed)
    k0 = int(np.floor((1.0 - ABSCISSA_FIT_FRACTION) * (trace.times.size - 1)))
    t_tail = trace.times[k0:]
    e_tail = trace.energies[k0:]
    positive = e_tail > 0.0
    if np.sum(positive) < 3:
        report.add("tail_fit_possible", False, positive_samples=int(np.sum(positive)))
        return report
    slope = float(np.polyfit(t_tail[positive], np.log(e_tail[positive]), 1)[0])
    target = 2.0 * abscissa
    bound = ABSCISSA_REL_TOL * abs(target) + ABSCISSA_SLOPE_ATOL
    report.add("decay_not_slower_than_abscissa", slope <= target + bound,
               slope=slope, target=target, tolerance=bound)
    report.add("slope_matches_abscissa", abs(slope - target) <= bound,
               slope=slope, target=target, relative_error=abs(slope - target) / abs(target))
    return report
