import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadpencil import (
    BeamConfig,
    InvalidArgumentError,
    build_linearization,
    discretize_beam,
    energy_monotonicity_report,
    make_damping_profile,
    simulate,
)
from quadpencil import QuadraticPencil, evolution
from quadpencil.config import build_pencil, load_config

from oracles import modal_energy, trapezoid_error_bounds, trapezoid_reference

SQRT7 = np.sqrt(7.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestSimulate:
    def test_undamped_conserves_energy(self, undamped_pencil):
        trace = simulate(undamped_pencil, [1.0, 0.0], [0.0, 0.0], 2.0, 1e-3)
        drift = np.max(np.abs(trace.energies / trace.energies[0] - 1.0))
        assert drift < 1e-12

    def test_overdamped_decay_bound(self, diag_pencil):
        # For z0 = e1, w0 = 0 the slow-mode coefficient is lam2/(lam2-lam1),
        # giving the asymptotic energy prefactor 3(3+sqrt7)/14 ~ 1.2098: the
        # decay is governed by the abscissa -3+sqrt7 only up to that factor.
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 10.0, 1e-3)
        prefactor = 3.0 * (3.0 + SQRT7) / 14.0
        bound = prefactor * np.exp(2.0 * (-3.0 + SQRT7) * 10.0) * (1.0 + 1e-3)
        ratio = trace.energies[-1] / trace.energies[0]
        assert ratio <= bound
        assert ratio >= bound * (1.0 - 2e-3)

    def test_matches_modal_oracle(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, 0.5], [0.2, 0.0], 1.0, 1e-4)
        system = build_linearization(diag_pencil)
        u0 = np.concatenate([diag_pencil.a0_sqrt_blocks.dense() @ [1.0, 0.5], [0.2, 0.0]])
        exact = modal_energy(system.a_matrix, u0, trace.times[::2000])
        assert np.allclose(trace.energies[::2000], exact, rtol=1e-7)

    def test_rotated_ill_conditioned_pencil(self, rotated_pencil):
        # cond(A0) = 1e6; the step reads only the companion, never its
        # closed-form inverse, whose rounding defect here is about 2e-10.
        trace = simulate(rotated_pencil, [1.0, 0.0], [0.0, 1.0], 0.5, 1e-3)
        energies, _, _, _ = trapezoid_reference(rotated_pencil, [1.0, 0.0], [0.0, 1.0],
                                                500, 1e-3)
        assert np.allclose(trace.energies, energies, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(trace.energies) <= 0.0)

    def test_zero_time_single_record(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 0.0, 1e-3)
        assert len(trace.times) == 1
        assert trace.energies[0] == pytest.approx(2.0)

    def test_validation(self, diag_pencil):
        with pytest.raises(InvalidArgumentError):
            simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 1.0, 0.0)
        with pytest.raises(InvalidArgumentError):
            simulate(diag_pencil, [1.0], [0.0, 0.0], 1.0, 1e-3)

    @pytest.mark.parametrize("t_final, dt", [(np.nan, 1e-3), (np.inf, 1e-3),
                                             (1.0, np.nan), (1.0, np.inf)])
    def test_nonfinite_times_rejected(self, diag_pencil, t_final, dt):
        with pytest.raises(InvalidArgumentError, match="finite"):
            simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], t_final, dt)

    @pytest.mark.parametrize("t_final, dt", [(1e300, 1e-300), (1.0, 1e-320), (1e12, 1e-3)])
    def test_step_count_over_limit_rejected(self, diag_pencil, t_final, dt):
        # The first two quotients overflow to inf, the last is 1e15 steps.
        with pytest.raises(InvalidArgumentError, match="exceeds the limit"):
            simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], t_final, dt)

    def test_step_limit_is_inclusive(self, diag_pencil, monkeypatch):
        monkeypatch.setattr(evolution, "MAX_STEPS", 10)
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 0.01, 1e-3)
        assert len(trace.times) == 11
        with pytest.raises(InvalidArgumentError, match="exceeds the limit of 10"):
            simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 0.011, 1e-3)


def _beam12():
    cfg = BeamConfig(
        a0=1.0,
        damping=make_damping_profile({"profile": "four_plus_sin"}),
        n_modes=12,
    )
    return discretize_beam(cfg)


def _reference_case(name, request):
    """(pencil, z0, w0, dt) of one fixture; dt is a power of two, so
    t_final = steps * dt gives exactly `steps` steps."""
    if name == "beam12":
        rng = np.random.default_rng(12)
        return _beam12(), rng.standard_normal(12), rng.standard_normal(12), 2.0**-14
    pencil = request.getfixturevalue(name)
    return pencil, [1.0, -0.4], [0.3, 0.7], 2.0**-10


def _block_lengths(pencil, steps):
    """simulate's states per block of a `steps`-step run, one per companion
    block size, in ascending size."""
    return [evolution.block_length(rows.size, rows.shape[1], steps)
            for _, rows in build_linearization(pencil).partition.groups]


def _reference_defect(pencil, dt, reference):
    """max_k |E_{k+1} - E_k + 2 dt d[w_{k+1/2}]| of trapezoid_reference's
    stride-1 states, each midpoint form taken on its own."""
    energies, _, _, ws = reference
    w_mid = (ws[:-1] + ws[1:]) / 2.0
    balance = [energies[k + 1] - energies[k] + 2.0 * dt * float(w @ (pencil.d_matrix @ w))
               for k, w in enumerate(w_mid)]
    return max(map(abs, balance), default=0.0)


def _assert_within_forward_error(pencil, z0, w0, dt, trace, reference):
    """trace against trapezoid_reference(..., snapshot_stride=1) by
    oracles.trapezoid_error_bounds. A defect moves with the two energies and
    the midpoint form it is taken from: by at most 2 |dE| + dt |dr|, the
    bounds at the last step."""
    energies, dissipation, _, _ = reference
    _, energy, rate = trapezoid_error_bounds(pencil, z0, w0, energies.size - 1, dt)
    assert np.all(np.abs(trace.energies - energies) <= energy)
    assert np.all(np.abs(trace.dissipation - dissipation) <= rate)
    defect = _reference_defect(pencil, dt, reference)
    assert abs(trace.identity_defect - defect) <= 2.0 * energy[-1] + dt * rate[-1]


class TestMatchesReferenceLoop:
    """simulate takes the steps of the one-lu_solve-per-step loop in
    oracles.py, up to the forward-error bound of its propagator powers,
    across the boundaries of its state blocks. The companions of the
    fixtures split into blocks of one size each, except the two-size
    pencil of test_two_block_sizes."""

    @pytest.mark.parametrize("name", ["diag_pencil", "undamped_pencil", "beam12"])
    @pytest.mark.parametrize("offset", ["zero", "one", "block-1", "block", "block+1",
                                        "2block+1"])
    def test_bitwise_states_and_dissipation(self, name, offset, request):
        pencil, z0, w0, dt = _reference_case(name, request)
        rows, = _block_lengths(pencil, 10**6)
        steps = {"zero": 0, "one": 1, "block-1": rows - 1, "block": rows,
                 "block+1": rows + 1, "2block+1": 2 * rows + 1}[offset]
        if steps >= rows - 1:
            assert _block_lengths(pencil, steps) == [rows]
        reference = trapezoid_reference(pencil, z0, w0, steps, dt, snapshot_stride=1)
        trace = simulate(pencil, z0, w0, steps * dt, dt)
        assert len(trace.times) == steps + 1
        _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)

    @pytest.mark.parametrize("name", ["diag_pencil", "beam12"])
    def test_many_small_blocks(self, name, request, monkeypatch):
        # Blocks of 4 states: every fourth step of the identity pairs the
        # last state of one block with the first of the next.
        pencil, z0, w0, dt = _reference_case(name, request)
        monkeypatch.setattr(evolution, "STATE_BLOCK_BYTES", 4 * 16 * pencil.dim)
        assert _block_lengths(pencil, 50) == [4]
        reference = trapezoid_reference(pencil, z0, w0, 50, dt, snapshot_stride=1)
        trace = simulate(pencil, z0, w0, 50 * dt, dt)
        _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)

    @pytest.mark.parametrize("excited", ["both", "one"])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("offset", ["zero", "one", "block-1", "block", "block+1",
                                        "2block+1"])
    def test_two_block_sizes(self, size, offset, excited, monkeypatch):
        # A0 = diag(1, 2, 3) with D coupling modes 1 and 2 only: the
        # companion splits into a block of 4 (z1, z2, w1, w2) and one of 2
        # (z3, w3), whose state blocks end at different steps. Blocks of 32
        # and 64 states keep the reference loop short. With `excited` one,
        # the initial state lies on the block of `size` alone, and the
        # other block, which simulate skips, adds exactly 0: the trace and
        # that of the other block's initial state sum to that of both.
        pencil = QuadraticPencil(np.diag([1.0, 2.0, 3.0]),
                                 [[2.0, 0.5, 0.0], [0.5, 3.0, 0.0], [0.0, 0.0, 1.0]])
        assert build_linearization(pencil).partition.sizes == (4, 2)
        monkeypatch.setattr(evolution, "STATE_BLOCK_BYTES", 1 << 10)
        assert _block_lengths(pencil, 10**6) == [64, 32]
        rows = {2: 64, 4: 32}[size]
        steps = {"zero": 0, "one": 1, "block-1": rows - 1, "block": rows,
                 "block+1": rows + 1, "2block+1": 2 * rows + 1}[offset]
        if steps >= 63:
            assert _block_lengths(pencil, steps) == [64, 32]
        elif steps >= 31:
            assert _block_lengths(pencil, steps)[1] == 32
        z_all, w_all, dt = np.array([1.0, -0.4, 0.25]), np.array([0.3, 0.7, -0.5]), 2.0**-8
        rest = {2: [0, 1], 4: [2]}[size] if excited == "one" else []
        z0, w0 = z_all.copy(), w_all.copy()
        z0[rest] = w0[rest] = 0.0
        reference = trapezoid_reference(pencil, z0, w0, steps, dt, snapshot_stride=1)
        trace = simulate(pencil, z0, w0, steps * dt, dt)
        assert len(trace.times) == steps + 1
        _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)
        if rest:
            other = simulate(pencil, z_all - z0, w_all - w0, steps * dt, dt)
            both = simulate(pencil, z_all, w_all, steps * dt, dt)
            assert np.array_equal(trace.energies + other.energies, both.energies)
            assert np.array_equal(trace.dissipation + other.dissipation, both.dissipation)
            assert trace.identity_defect + other.identity_defect == both.identity_defect

    def test_memory_flat_in_step_count(self):
        # The peak of a 1e5-step run exceeds that of a 1e4-step run by the
        # 24 bytes a step of times, energies and dissipation, plus at most
        # one state block.
        pencil = build_pencil(load_config(CONFIGS / "beam_sin.json"))
        z0, w0, dt = np.eye(pencil.dim)[0], np.zeros(pencil.dim), 2.0**-14
        peaks = []
        tracemalloc.start()
        try:
            for steps in (10**4, 10**5):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                trace = simulate(pencil, z0, w0, steps * dt, dt)
                assert len(trace.times) == steps + 1
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                del trace
        finally:
            tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 24 * (10**5 - 10**4) + evolution.STATE_BLOCK_BYTES

    def test_nonfinite_initial_data_rejected(self, diag_pencil):
        with pytest.raises(InvalidArgumentError, match="finite"):
            simulate(diag_pencil, [np.nan, 0.0], [0.0, 0.0], 0.01, 1e-3)


class TestEnergyLaws:
    def test_monotonicity_report(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, 1.0], [0.3, -0.2], 5.0, 1e-3)
        assert energy_monotonicity_report(trace).ok

    def test_discrete_identity(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, -0.4], [0.0, 0.7], 0.5, 1e-3)
        report = energy_monotonicity_report(trace)
        assert report.ok, report.failures()
        identity = next(c for c in report.checks if c.label == "per_step_identity")
        assert identity.data["worst_defect"] == trace.identity_defect

    def test_identity_defect_matches_step_loop(self):
        pencil = _beam12()
        rng = np.random.default_rng(3)
        z0, w0, dt = rng.standard_normal(12), rng.standard_normal(12), 1e-4
        trace = simulate(pencil, z0, w0, 0.01, dt)
        reference = trapezoid_reference(pencil, z0, w0, 100, dt, snapshot_stride=1)
        _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)

    def test_at_rest_all_zero(self, diag_pencil):
        trace = simulate(diag_pencil, [0.0, 0.0], [0.0, 0.0], 0.1, 1e-3)
        assert not np.any(trace.energies) and not np.any(trace.dissipation)
        assert trace.identity_defect == 0.0
        assert energy_monotonicity_report(trace).ok

    @pytest.mark.parametrize("one_state_blocks", [False, True])
    def test_scaled_propagator_breaks_identity(self, diag_pencil, monkeypatch, one_state_blocks):
        # Every step shrinks by 1 - 1e-8 more than the scheme: the energy
        # still decreases, but each step loses about 2e-8 E_k more than the
        # dissipation accounts for, 200 times the bound 1e-10 E(0). With
        # blocks of one state every pair of consecutive states straddles
        # two blocks.
        if one_state_blocks:
            monkeypatch.setattr(evolution, "STATE_BLOCK_BYTES", 1)
            assert _block_lengths(diag_pencil, 100) == [1]
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: (1.0 - 1e-8) * solve(a, b))
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 0.1, 1e-3)
        report = energy_monotonicity_report(trace)
        assert [c.label for c in report.failures()] == ["per_step_identity"]
        assert trace.identity_defect == pytest.approx(2e-8 * trace.energies[0], rel=1e-2)

    def test_step_refinement_second_order(self, diag_pencil):
        t_final = 1.0
        system = build_linearization(diag_pencil)
        u0 = np.concatenate([diag_pencil.a0_sqrt_blocks.dense() @ [1.0, 0.0], [0.0, 0.0]])
        exact = modal_energy(system.a_matrix, u0, [t_final])[0]
        errors = []
        for dt in (4e-3, 2e-3, 1e-3):
            trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], t_final, dt)
            errors.append(abs(trace.energies[-1] - exact))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9
