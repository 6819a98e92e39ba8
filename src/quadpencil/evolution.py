"""Time evolution of the damped second-order system and energy diagnostics.

The first-order system is integrated with the trapezoidal one-step scheme in
whitened coordinates. For the skew part the scheme is a Cayley transform
(exactly energy-preserving); the damping block makes each step strictly
contractive, so the squared energy norm obeys the discrete identity
E_{k+1} - E_k = -2 dt d[w_{k+1/2}] up to the roundoff of the propagator.

The run is taken on the companion's diagonal blocks (the partition of
linearization.LinearizedSystem) that the initial state excites; a block
that starts at zero stays at zero. Per block size, one batched solve of
I - dt/2 A_b with I + dt/2 A_b as right-hand side gives the propagators M_b
of one step. The states of a block size are rows of a block of states, one
stack per companion block: the first block is filled by doubling,
rows[f:2f] = rows[:f] @ (M_b^f)^T, and each later block is one product of
the block before it with (M_b^B)^T, so no Python code runs per step. The
energies and dissipation rates of a full block are taken together by
batched products and summed over the companion blocks, and so are the
defects of the discrete identity between consecutive states.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError
from .linearization import build_linearization
from .pencil import QuadraticPencil
from .reports import Report

# Steps a run may take: its times, energies and dissipation rates alone are
# 24 bytes a step, so 1e8 steps hold 2.4 GB before any state is computed.
MAX_STEPS = 10**8
# Bytes of a block of states, whose energies are taken together; simulate
# holds the current and the previous block of one block size at a time, so
# memory stays flat in the step count.
STATE_BLOCK_BYTES = 1 << 18
# Energy rise and per-step identity defect allowed, relative to E(0).
ENERGY_REL_TOL = 1e-10


def block_length(width: int, size: int, steps: int) -> int:
    """States per block of a run of `steps` steps, for the companion blocks
    of one size `size` whose states together hold `width` floats: the
    largest power of two B that fits STATE_BLOCK_BYTES as rows of `width`
    floats, is no longer than the smallest power of two holding the run's
    steps + 1 states, and whose log2(B) squarings of the size x size
    propagators cost no more flops than the `steps` products with them
    (log2(B) size <= steps)."""
    rows = max(1, STATE_BLOCK_BYTES // (8 * width))
    return 1 << min(rows.bit_length() - 1, steps.bit_length(), steps // size)


class SimulationTrace(NamedTuple):
    """Energy history of one trapezoidal run.

    energies holds E(t) = |A0^{1/2} z|^2 + |w|^2; dissipation holds the
    instantaneous rate 2 d[w(t)] at the sample times; identity_defect bounds
    the worst |E_{k+1} - E_k + 2 dt d[w_{k+1/2}]| over the steps.
    """

    times: np.ndarray
    energies: np.ndarray
    dissipation: np.ndarray
    identity_defect: float


def simulate(pencil: QuadraticPencil, z0, w0, t_final: float, dt: float) -> SimulationTrace:
    """Integrate from (z0, w0) to t_final with fixed step dt.

    A t_final below dt (including zero) yields the single initial record;
    a run of more than MAX_STEPS steps is rejected before anything is
    allocated.

    The states are those of one LU solve per step up to rounding and the
    coupling between the companion's blocks, which the run drops. In
    whitened coordinates u = (A0^{1/2} z, w), state k is held to the
    forward-error bound |u_k - u_k^ref| <= [(k + 1) 2n eps cond2(I - dt/2 A)
    + k dt |E|_2] |u_0|. The first term: each M_b carries the rounding of
    one solve, every power of the exact M is a contraction, and the power
    that reaches state k is formed by at most k + 1 rounded products. The
    second: the blocks' A_b make up A - E, E the dropped coupling with
    |E|_2 <= 4n eps |A| (blocks); A - E is dissipative like A (its
    symmetric part holds diagonal blocks of -D), so both propagators are
    contractions, they differ by at most dt |E|_2, and their k-th powers by
    k dt |E|_2. The energies and dissipation rates are sums over the blocks,
    so the dissipation omits the cross terms of D between blocks, at most
    2 |E|_2 |w|^2.
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
    z0, w0 = np.asarray(z0, dtype=float), np.asarray(w0, dtype=float)
    n = pencil.dim
    if z0.shape != (n,) or w0.shape != (n,):
        raise InvalidArgumentError(
            f"initial data shapes {z0.shape}, {w0.shape} do not match dimension {n}")
    if not (np.isfinite(z0).all() and np.isfinite(w0).all()):
        raise InvalidArgumentError("initial data must be finite")

    system = build_linearization(pencil)
    u0 = np.concatenate([pencil.a0_sqrt_blocks.left(z0[:, None])[:, 0], w0])

    times = dt * np.arange(steps + 1)
    energies = np.zeros(steps + 1)
    dissipation = np.zeros(steps + 1)
    identity_defect = 0.0

    for _, rows in system.partition.groups:
        # A block that starts at rest stays there (M_b 0 = 0): it adds +0.0
        # to every energy, dissipation rate and identity defect.
        rows = rows[np.any(u0[rows] != 0.0, axis=1)]
        if not rows.size:
            continue
        count, size = rows.shape
        stack = system.a_matrix[rows[:, :, None], rows[:, None, :]]
        eye = np.eye(size)  # I - dt/2 A_b is regular: A_b is dissipative
        propagator = np.linalg.solve(eye - (dt / 2.0) * stack, eye + (dt / 2.0) * stack)
        # A companion block is pencil rows r, then r + n (blocks.companion):
        # its w is its second half, and 2 w^T D w is taken with D on those rows.
        tail = size // 2
        w_rows = rows[:, tail:] - n
        d_stack = pencil.d_matrix[w_rows[:, :, None], w_rows[:, None, :]]
        length = block_length(count * size, size, steps)
        block = np.empty((count, length, size))
        before = np.empty_like(block)  # the previous block
        block[:, 0] = u0[rows]
        power, filled = np.swapaxes(propagator, 1, 2), 1  # power = (M_b^filled)^T
        while filled < length:
            np.matmul(block[:, :filled], power, out=block[:, filled:2 * filled])
            filled *= 2
            if filled < length or steps >= length:  # the next fill or block needs it
                power = power @ power
        worst = 0.0
        for start in range(0, steps + 1, length):
            stop = min(start + length, steps + 1)
            current = block[:, : stop - start]
            if start:
                np.matmul(before[:, : stop - start], power, out=current)
            w_part = current[:, :, tail:]
            d_w = w_part @ d_stack
            energy = np.einsum("kli,kli->l", current, current)
            rate = 2.0 * np.einsum("kli,kli->l", d_w, w_part)
            energies[start:stop] += energy
            dissipation[start:stop] += rate
            # The identity of each pair of consecutive states, by
            # 2 d[w_{k+1/2}] = (r_k + r_{k+1}) / 4 + w_k^T D w_{k+1}; the
            # first state of a block pairs with the last of the block before.
            cross = np.einsum("kli,kli->l", d_w[:, :-1], w_part[:, 1:])
            defect = energy[1:] - energy[:-1] + dt * ((rate[:-1] + rate[1:]) / 4.0 + cross)
            worst = max(worst, float(np.abs(defect).max(initial=0.0)))
            if start:
                edge = energy[0] - e_last + dt * ((r_last + rate[0]) / 4.0
                                                  + np.vdot(d_w_last, w_part[:, 0]))
                worst = max(worst, abs(float(edge)))
            e_last, r_last, d_w_last = energy[-1], rate[-1], d_w[:, -1].copy()
            block, before = before, block
        # Per block size its worst defect: their sum bounds the worst of the
        # summed defects, and is it when one block size is excited.
        identity_defect += worst
        del block, before  # freed before the next block size allocates its own

    return SimulationTrace(times, energies, dissipation, identity_defect)


def energy_monotonicity_report(trace: SimulationTrace) -> Report:
    """Per-step non-increase of the energy and the discrete energy identity
    E_{k+1} - E_k = -2 dt d[w_{k+1/2}], each to ENERGY_REL_TOL * E(0), and
    nonnegativity of the dissipation rate."""
    report = Report("energy_monotonicity")
    e0 = float(trace.energies[0])
    limit, bound = ENERGY_REL_TOL * max(e0, 1e-300), ENERGY_REL_TOL * e0
    rises = np.diff(trace.energies)
    worst = float(np.max(rises)) if rises.size else 0.0
    report.add("energy_non_increasing", worst <= limit,
               worst_rise=worst, initial_energy=e0, bound=bound)
    report.add("per_step_identity", trace.identity_defect <= limit,
               worst_defect=trace.identity_defect, initial_energy=e0, bound=bound)
    d_scale, d_min = float(np.max(np.abs(trace.dissipation))), float(np.min(trace.dissipation))
    report.add("dissipation_nonnegative", d_min >= -1e-12 * max(d_scale, 1e-300),
               min_dissipation=d_min, scale=d_scale)
    return report
