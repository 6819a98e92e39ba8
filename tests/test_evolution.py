import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadpencil import (
    BeamConfig,
    InvalidArgumentError,
    build_linearization,
    discrete_energy_identity_report,
    discretize_beam,
    energy_monotonicity_report,
    make_damping_profile,
    simulate,
    spectral_abscissa_consistency,
)
from quadpencil import QuadraticPencil, evolution
from quadpencil.config import build_pencil, load_config

from oracles import modal_energy, trapezoid_error_bounds, trapezoid_reference

SQRT7 = np.sqrt(7.0)
EPS = np.finfo(float).eps
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
        u0 = np.concatenate([diag_pencil.a0_sqrt @ [1.0, 0.5], [0.2, 0.0]])
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

    def test_snapshots(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 0.01, 1e-3,
                         snapshot_stride=5)
        zs, ws = trace.states
        assert zs.shape == (3, 2) and ws.shape == (3, 2)
        assert np.allclose(zs[0], [1.0, 0.0])


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


def _assert_within_forward_error(pencil, z0, w0, dt, trace, reference):
    """trace against trapezoid_reference(..., snapshot_stride=1) by
    oracles.trapezoid_error_bounds; snapshots z = A0^{-1/2} u_z by
    |A0^{-1/2}| times the state bound."""
    energies, dissipation, zs, ws = reference
    state, energy, rate = trapezoid_error_bounds(pencil, z0, w0, energies.size - 1, dt)
    assert np.all(np.abs(trace.energies - energies) <= energy)
    assert np.all(np.abs(trace.dissipation - dissipation) <= rate)
    stride = trace.snapshot_stride
    got_z, got_w = trace.states
    assert np.all(np.linalg.norm(got_w - ws[::stride], axis=1) <= state[::stride])
    s_norm = np.linalg.norm(np.abs(pencil.a0_inv_sqrt), 2)
    assert np.all(np.linalg.norm(got_z - zs[::stride], axis=1) <= s_norm * state[::stride])


def _assert_energies_are_state_norms(pencil, trace):
    """E_k = |A0^{1/2} z_k|^2 + |w_k|^2 for the returned stride-1 states, to
    the rounding of mapping z_k back to whitened coordinates: 6 n eps
    |A0^{1/2}| |A0^{-1/2}| relative, |.| on a matrix the 2-norm of its
    entrywise absolute value."""
    zs, ws = trace.states
    u = np.hstack([zs @ pencil.a0_sqrt.T, ws])
    kappa = (np.linalg.norm(np.abs(pencil.a0_sqrt), 2)
             * np.linalg.norm(np.abs(pencil.a0_inv_sqrt), 2))
    tol = 6 * pencil.dim * EPS * kappa
    assert np.all(np.abs(trace.energies - np.sum(u * u, axis=1)) <= tol * trace.energies)


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
        for stride in (1, 7, rows + 5):
            trace = simulate(pencil, z0, w0, steps * dt, dt, snapshot_stride=stride)
            assert len(trace.times) == steps + 1
            assert trace.snapshot_stride == stride
            _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)
            if stride == 1:
                _assert_energies_are_state_norms(pencil, trace)
        assert simulate(pencil, z0, w0, steps * dt, dt).states is None

    @pytest.mark.parametrize("name", ["diag_pencil", "beam12"])
    def test_many_small_blocks(self, name, request, monkeypatch):
        # Blocks of 4 states, so snapshots fall at every offset into a block.
        pencil, z0, w0, dt = _reference_case(name, request)
        monkeypatch.setattr(evolution, "STATE_BLOCK_BYTES", 4 * 16 * pencil.dim)
        assert _block_lengths(pencil, 50) == [4]
        reference = trapezoid_reference(pencil, z0, w0, 50, dt, snapshot_stride=1)
        for stride in (1, 2, 3, 4, 7, 50):
            trace = simulate(pencil, z0, w0, 50 * dt, dt, snapshot_stride=stride)
            _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)
            if stride == 1:
                _assert_energies_are_state_norms(pencil, trace)

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
        # other block, which simulate skips, stays exactly at rest.
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
        z0, w0, dt = np.array([1.0, -0.4, 0.25]), np.array([0.3, 0.7, -0.5]), 2.0**-8
        rest = {2: [0, 1], 4: [2]}[size] if excited == "one" else []
        z0[rest] = w0[rest] = 0.0
        reference = trapezoid_reference(pencil, z0, w0, steps, dt, snapshot_stride=1)
        for stride in (1, 7, 69):
            trace = simulate(pencil, z0, w0, steps * dt, dt, snapshot_stride=stride)
            assert len(trace.times) == steps + 1
            _assert_within_forward_error(pencil, z0, w0, dt, trace, reference)
            if stride == 1:
                _assert_energies_are_state_norms(pencil, trace)
            for states in trace.states:
                assert np.all(states[:, rest] == 0.0)

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
        trace = simulate(diag_pencil, [1.0, -0.4], [0.0, 0.7], 0.5, 1e-3,
                         snapshot_stride=1)
        report = discrete_energy_identity_report(diag_pencil, trace)
        assert report.ok, report.failures()

    def test_identity_defect_matches_step_loop(self):
        pencil = _beam12()
        rng = np.random.default_rng(3)
        trace = simulate(pencil, rng.standard_normal(12), rng.standard_normal(12),
                         0.01, 1e-4, snapshot_stride=1)
        _, ws = trace.states
        worst = 0.0
        for k in range(len(trace.times) - 1):
            w_mid = (ws[k] + ws[k + 1]) / 2.0
            balance = (trace.energies[k + 1] - trace.energies[k]
                       + 2.0 * 1e-4 * float(w_mid @ (pencil.d_matrix @ w_mid)))
            worst = max(worst, abs(balance))
        report = discrete_energy_identity_report(pencil, trace)
        assert report.checks[0].data["worst_defect"] == worst

    def test_identity_requires_full_states(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 0.1, 1e-3)
        with pytest.raises(InvalidArgumentError):
            discrete_energy_identity_report(diag_pencil, trace)

    def test_step_refinement_second_order(self, diag_pencil):
        t_final = 1.0
        system = build_linearization(diag_pencil)
        u0 = np.concatenate([diag_pencil.a0_sqrt @ [1.0, 0.0], [0.0, 0.0]])
        exact = modal_energy(system.a_matrix, u0, [t_final])[0]
        errors = []
        for dt in (4e-3, 2e-3, 1e-3):
            trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], t_final, dt)
            errors.append(abs(trace.energies[-1] - exact))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9


class TestAbscissaFit:
    def test_diag_fixture(self, diag_pencil):
        trace = simulate(diag_pencil, [1.0, 0.0], [0.0, 0.0], 30.0, 1e-3)
        report = spectral_abscissa_consistency(diag_pencil, trace)
        assert report.ok, report.failures()
        slope = next(c for c in report.checks if c.label == "slope_matches_abscissa")
        assert slope.data["target"] == pytest.approx(2.0 * (-3.0 + SQRT7), abs=1e-9)

    def test_undamped_flat(self, undamped_pencil):
        trace = simulate(undamped_pencil, [1.0, 0.0], [0.0, 0.0], 10.0, 1e-3)
        report = spectral_abscissa_consistency(undamped_pencil, trace)
        assert report.ok, report.failures()

    def test_beam_slope(self):
        cfg = BeamConfig(
            a0=1.0,
            damping=make_damping_profile({"profile": "constant", "params": {"value": 4.0}}),
            n_modes=6,
        )
        pencil = discretize_beam(cfg)
        z0 = np.zeros(6)
        z0[0] = 1.0
        trace = simulate(pencil, z0, np.zeros(6), 4.0, 5e-4)
        report = spectral_abscissa_consistency(pencil, trace)
        assert report.ok, report.failures()
        slope = next(c for c in report.checks if c.label == "slope_matches_abscissa")
        assert slope.data["target"] == pytest.approx(
            2.0 * (-2.0 + np.sqrt(3.0)) * np.pi**2, rel=1e-9
        )
