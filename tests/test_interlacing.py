import numpy as np
import pytest

from quadpencil import (
    BeamConfig,
    FormOrderError,
    InvalidArgumentError,
    QuadraticPencil,
    IntervalDelta,
    check_form_order,
    compare_eigenvalues,
    compute_alpha,
    discretize_beam,
    make_damping_profile,
    rayleigh_batch,
)
from quadpencil.config import random_pencil


def ordered_pair(seed, dim=4, eps=0.05):
    """Base pencil plus a softened-stiffness / strengthened-damping partner."""
    rng = np.random.default_rng(seed)
    p = random_pencil(dim, seed, damping_scale=6.0, ensure_real_root_cone=True)
    b1 = rng.standard_normal((dim, dim))
    b2 = rng.standard_normal((dim, dim))
    soften = eps * (b1 @ b1.T) / dim
    strengthen = eps * (b2 @ b2.T) / dim
    w_min = np.linalg.eigvalsh(p.a0_matrix)[0]
    soften *= 0.5 * w_min / max(np.linalg.norm(soften, 2), 1e-12)
    p_hat = QuadraticPencil(
        p.a0_matrix - soften, p.d_matrix + strengthen
    )
    return p, p_hat


class TestFormOrder:
    def test_reflexive(self, diag_pencil):
        assert check_form_order(diag_pencil, diag_pencil)

    def test_softened_stiffness(self, diag_pencil):
        softer = QuadraticPencil(np.diag([1.0, 8.0]), np.diag([6.0, 2.0]))
        assert check_form_order(diag_pencil, softer)
        assert not check_form_order(softer, diag_pencil)

    def test_dimension_mismatch(self, diag_pencil, overdamped_1x1):
        with pytest.raises(InvalidArgumentError):
            check_form_order(diag_pencil, overdamped_1x1)


class TestCompare:
    def test_identical_pencils(self, diag_pencil):
        report = compare_eigenvalues(diag_pencil, diag_pencil)
        assert report.ok
        assert report.n_left == report.n_right
        for lam, lam_hat, ok in report.per_n:
            assert ok and lam == pytest.approx(lam_hat, abs=1e-9)

    def test_beam_damping_increase(self):
        cfg4 = BeamConfig(
            a0=1.0,
            damping=make_damping_profile({"profile": "constant", "params": {"value": 4.0}}),
            n_modes=6,
        )
        cfg5 = BeamConfig(
            a0=1.0,
            damping=make_damping_profile({"profile": "constant", "params": {"value": 5.0}}),
            n_modes=6,
        )
        p4, p5 = discretize_beam(cfg4), discretize_beam(cfg5)
        assert check_form_order(p4, p5)
        report = compare_eigenvalues(p4, p5, a=-2.0 * np.pi**2)
        assert report.ok, report.to_dict()
        lam1 = (-2.0 + np.sqrt(3.0)) * np.pi**2
        lam1_hat = (-5.0 + np.sqrt(21.0)) / 2.0 * np.pi**2
        assert report.per_n[0][0] == pytest.approx(lam1, abs=1e-9)
        assert report.per_n[0][1] == pytest.approx(lam1_hat, abs=1e-9)
        assert report.gamma == pytest.approx(4.0 / np.pi**2, rel=1e-10)
        assert report.gamma_hat == pytest.approx(5.0 / np.pi**2, rel=1e-10)

    def test_random_ordered_pairs(self):
        for seed in range(6):
            p, p_hat = ordered_pair(2000 + seed)
            report = compare_eigenvalues(p, p_hat)
            assert report.ok, report.to_dict()
            # p_hat's alpha refined only as far as the larger alpha needs
            alpha = max(compute_alpha(p).alpha, compute_alpha(p_hat).alpha)
            assert report.interval_lower == IntervalDelta.inside(alpha).lower

    def test_order_violation_rejected(self, diag_pencil):
        stiffer = QuadraticPencil(np.diag([3.0, 8.0]), np.diag([6.0, 2.0]))
        with pytest.raises(FormOrderError):
            compare_eigenvalues(diag_pencil, stiffer)
        assert issubclass(FormOrderError, InvalidArgumentError)

    def test_left_endpoint_gate(self, diag_pencil):
        with pytest.raises(InvalidArgumentError):
            compare_eigenvalues(diag_pencil, diag_pencil, a=-50.0)

    def test_pointwise_root_monotonicity(self):
        for seed in range(4):
            p, p_hat = ordered_pair(3000 + seed)
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((p.dim, 400))
            _, pp, feas = rayleigh_batch(p, x)
            _, pp_hat, feas_hat = rayleigh_batch(p_hat, x)
            both = feas  # feasibility for p implies feasibility for p_hat
            assert np.all(feas_hat[both])
            assert np.all(pp[both] <= pp_hat[both] + 1e-10)
