import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from quadpencil import (
    BeamConfig,
    DampingProfile,
    InvalidArgumentError,
    QuadratureSpec,
    beam_bounds,
    beam_closed_form,
    build_linearization,
    discretize_beam,
    full_spectrum,
    make_damping_profile,
    verify_beam_theorem,
)
from quadpencil import beam
from quadpencil import pencil as pencil_mod
from quadpencil import variational
from quadpencil.pencil import AlphaResult, compute_alpha
from quadpencil.variational import within_alpha

from oracles import (
    damping_entry_adaptive,
    damping_from_moments,
    damping_matrix_gemm,
    damping_moments_closed_form,
)

# Profiles whose cosine moments have closed forms.
ANALYTIC_PROFILES = [
    ("constant", {"value": 4.0}),
    ("affine", {"intercept": 2.0, "slope": 1.5}),
    ("four_plus_sin", {}),
]


def constant_cfg(value=4.0, n_modes=6, a0=1.0):
    return BeamConfig(
        a0=a0,
        damping=make_damping_profile({"profile": "constant", "params": {"value": value}}),
        n_modes=n_modes,
    )


def sine_cfg(n_modes=6):
    return BeamConfig(
        a0=1.0,
        damping=make_damping_profile({"profile": "four_plus_sin", "params": {}}),
        n_modes=n_modes,
    )


class TestProfiles:
    def test_constant(self):
        prof = make_damping_profile({"profile": "constant", "params": {"value": 3.5}})
        assert prof.d_min == prof.d_max == 3.5
        assert np.allclose(prof(np.linspace(0, 1, 5)), 3.5)

    def test_four_plus_sin_range(self):
        prof = make_damping_profile({"profile": "four_plus_sin", "params": {}})
        assert (prof.d_min, prof.d_max) == (4.0, 5.0)
        assert prof(0.5) == pytest.approx(5.0)

    def test_affine(self):
        prof = make_damping_profile(
            {"profile": "affine", "params": {"intercept": 2.0, "slope": 1.0}}
        )
        assert (prof.d_min, prof.d_max) == (2.0, 3.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_damping_profile(
                {"profile": "affine", "params": {"intercept": 1.0, "slope": -2.0}}
            )
        with pytest.raises(InvalidArgumentError):
            make_damping_profile({"profile": "constant", "params": {"value": 0.0}})

    def test_samples_cubic(self):
        grid = np.linspace(0.0, 1.0, 33)
        prof = make_damping_profile(
            {"profile": "samples", "params": {"values": (4.0 + np.sin(np.pi * grid)).tolist()}}
        )
        assert prof.d_min == pytest.approx(4.0, abs=1e-6)
        assert prof.d_max == pytest.approx(5.0, abs=1e-6)
        r = np.linspace(0, 1, 101)
        assert np.max(np.abs(prof(r) - (4.0 + np.sin(np.pi * r)))) < 1e-5

    @pytest.mark.parametrize("values, extreme, bracket", [
        ([4.0, 6.5, 5.0, 4.2, 7.0, 4.5], "d_max", (0.8, 0.9)),
        ([4.0, 4.0, 4.0, 5.0, 4.0, 4.0], "d_min", (0.85, 0.95)),
    ])
    def test_samples_extremes_at_critical_points(self, values, extreme, bracket):
        # The extreme lies between knots, at a zero of the spline's
        # derivative (found here by bisection), beyond the knots' values and
        # beyond every point of a dense scan.
        spline = CubicSpline(np.linspace(0.0, 1.0, len(values)), values)
        prof = make_damping_profile({"profile": "samples", "params": {"values": values}})
        at_root = float(spline(brentq(spline.derivative(), *bracket, xtol=1e-15)))
        scan = spline(np.linspace(0.0, 1.0, 200_001))
        if extreme == "d_max":
            assert prof.d_max == pytest.approx(at_root, rel=1e-15, abs=0.0)
            assert prof.d_max >= scan.max() and prof.d_max > max(values)
        else:
            assert prof.d_min == pytest.approx(at_root, rel=1e-15, abs=0.0)
            assert prof.d_min <= scan.min() and prof.d_min < min(values)

    def test_constant_samples(self):
        # The derivative vanishes on every piece: its roots are nan there,
        # and the knots give the extremes.
        prof = make_damping_profile({"profile": "samples", "params": {"values": [3.0] * 5}})
        assert prof.d_min == prof.d_max == 3.0

    def test_unknown_profile(self):
        with pytest.raises(InvalidArgumentError):
            make_damping_profile({"profile": "bogus"})


class TestDiscretization:
    def test_stiffness_diagonal_pattern(self):
        pencil = discretize_beam(constant_cfg(n_modes=3))
        assert np.allclose(
            np.diag(pencil.a0_matrix),
            np.array([1.0, 16.0, 81.0]) * np.pi**4,
            rtol=1e-14,
        )
        off = pencil.a0_matrix - np.diag(np.diag(pencil.a0_matrix))
        assert np.all(off == 0.0)

    def test_constant_damping_exactly_diagonal(self):
        pencil = discretize_beam(constant_cfg(value=4.0, n_modes=12))
        expected = 4.0 * np.arange(1, 13) ** 2 * np.pi**2
        scale = expected[-1]
        assert np.max(np.abs(np.diag(pencil.d_matrix) - expected)) < 1e-12 * scale
        off = pencil.d_matrix - np.diag(np.diag(pencil.d_matrix))
        assert np.max(np.abs(off)) < 1e-12 * scale

    @pytest.mark.parametrize("name, params", ANALYTIC_PROFILES)
    @pytest.mark.parametrize("n_modes", [1, 2, 12, 30, 150])
    def test_matches_closed_form_moments(self, name, params, n_modes):
        # The bound was fixed before the first run: the n x K cosine-matrix
        # assembly met these closed forms to 3.4e-15 |D|_2.
        cfg = BeamConfig(a0=1.0, n_modes=n_modes, damping=make_damping_profile(
            {"profile": name, "params": params}))
        d = discretize_beam(cfg).d_matrix
        ref = damping_from_moments(damping_moments_closed_form(name, params, n_modes), n_modes)
        scale = np.linalg.norm(ref, 2)
        assert np.linalg.norm(d - ref, 2) <= 1e-13 * scale
        assert np.array_equal(d, d.T)
        if name == "constant":
            # The constant-damping alpha oracle needs D diagonal to rounding.
            off = d - np.diag(np.diag(d))
            assert np.max(np.abs(off)) <= 1e-14 * scale

    @pytest.mark.parametrize("profile, n_modes, points", [
        ({"profile": "samples", "params": {"values": [4.0, 6.5, 5.0, 4.2, 7.0, 4.5]}}, 12, 8),
        ({"profile": "samples", "params": {"values": [4.0, 6.5, 5.0, 4.2, 7.0, 4.5]}}, 50, 8),
        ({"profile": "four_plus_sin"}, 12, 1),
        ({"profile": "four_plus_sin"}, 7, 3),
    ])
    def test_matches_cosine_matrix_assembly(self, profile, n_modes, points):
        # Same rule, each node's cosines formed directly: the two differ by
        # rounding only, also for a spline profile that no rule integrates
        # exactly and for rules of a few panels.
        cfg = BeamConfig(a0=1.0, n_modes=n_modes, damping=make_damping_profile(profile),
                         quadrature=QuadratureSpec(points_per_mode_pair=points))
        ref = damping_matrix_gemm(cfg)
        d = discretize_beam(cfg).d_matrix
        assert np.linalg.norm(d - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)

    def test_gauss_rule_is_leggauss(self):
        # The literal table spares every process the numpy.polynomial import.
        x, w = np.polynomial.legendre.leggauss(beam.GAUSS_PANEL_ORDER)
        assert beam._GAUSS_X.tobytes() == x.tobytes()
        assert beam._GAUSS_W.tobytes() == w.tobytes()

    def test_nonpositive_node_rejected(self):
        # A profile built around make_damping_profile's scan, negative on
        # the right half of the beam.
        profile = DampingProfile(name="ramp", params={}, func=lambda r: 1.0 - 2.0 * r,
                                 d_min=1.0, d_max=1.0)
        with pytest.raises(InvalidArgumentError, match="quadrature node"):
            discretize_beam(BeamConfig(a0=1.0, damping=profile, n_modes=4))

    def test_variable_damping_vs_adaptive_quadrature(self):
        cfg = sine_cfg(n_modes=5)
        pencil = discretize_beam(cfg)
        for m, n in ((1, 1), (1, 2), (2, 3), (4, 5), (5, 5)):
            ref = damping_entry_adaptive(cfg.damping, m, n)
            assert pencil.d_matrix[m - 1, n - 1] == pytest.approx(ref, abs=1e-10)

    def test_d11_closed_form_for_sine_profile(self):
        # integral of (4 + sin(pi r)) cos^2(pi r) over [0,1] is 2 + 2/(3 pi)
        cfg = sine_cfg(n_modes=2)
        pencil = discretize_beam(cfg)
        expected = 2.0 * np.pi**2 * (2.0 + 2.0 / (3.0 * np.pi))
        assert pencil.d_matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_form_inequalities(self):
        cfg = sine_cfg(n_modes=6)
        pencil = discretize_beam(cfg)
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.standard_normal(6)
            a0_form = x @ pencil.a0_matrix @ x
            assert a0_form >= cfg.a0 * np.pi**4 * (x @ x) * (1 - 1e-12)
            assert a0_form >= (cfg.a0 * np.pi**2 / cfg.damping.d_max) * (
                x @ pencil.d_matrix @ x
            ) * (1 - 1e-12)


class TestClosedForm:
    def test_overdamped(self):
        vals = beam_closed_form(constant_cfg(value=4.0, n_modes=3))
        lam_plus = (-2.0 + np.sqrt(3.0)) * np.pi**2
        assert np.min(np.abs(vals - lam_plus)) < 1e-12
        assert np.all(np.abs(vals.imag) < 1e-12)

    def test_underdamped_complex(self):
        vals = beam_closed_form(constant_cfg(value=1.0, n_modes=2))
        expected = (-1.0 + 1j * np.sqrt(3.0)) / 2.0 * np.pi**2
        assert np.min(np.abs(vals - expected)) < 1e-10

    def test_critical_double(self):
        vals = beam_closed_form(constant_cfg(value=2.0, n_modes=2))
        assert np.sum(np.abs(vals - (-np.pi**2)) < 1e-9) == 2

    def test_requires_constant(self):
        with pytest.raises(InvalidArgumentError):
            beam_closed_form(sine_cfg())

    def test_matches_discretized_spectrum(self):
        cfg = constant_cfg(value=4.0, n_modes=4)
        spec = full_spectrum(build_linearization(discretize_beam(cfg)))
        closed = beam_closed_form(cfg)
        for lam in closed:
            assert np.min(np.abs(spec.raw_eigenvalues - lam)) < 1e-8 * max(1.0, abs(lam))


class TestBounds:
    def test_reference_case(self):
        bounds = beam_bounds(constant_cfg(value=4.0, n_modes=12))
        assert bounds.applicable
        assert bounds.n_min_count == 2
        # bound value 1/(1 - sqrt(0.75)) ~ 7.4641
        assert len(bounds.lower_n) == 2
        assert bounds.upper_n[0] == pytest.approx((-2.0 + np.sqrt(3.0)) * np.pi**2)

    def test_boundary_case(self):
        bounds = beam_bounds(constant_cfg(value=2.0, n_modes=4))
        assert bounds.applicable
        assert bounds.n_min_count == 1

    def test_not_applicable(self):
        bounds = beam_bounds(constant_cfg(value=1.0, n_modes=4))
        assert not bounds.applicable
        assert bounds.upper_n == () and bounds.lower_n == ()

    def test_large_damping_count_without_cancellation(self):
        # 1 - sqrt(1 - 4 a0 / d^2) is 0 in floating point at d = 1e9; the
        # count is floor(sqrt(bound)) for bound ~ d^2 / (2 a0).
        assert beam_bounds(constant_cfg(value=1e9, n_modes=4)).n_min_count == 707106781

    @pytest.mark.parametrize("d", [1e3, 1e6, 1e9])
    def test_mode_ends_match_mpmath(self, d):
        # Every end is (-d + sqrt(d^2 - 4 a0)) / 2 pi^2 k^2, whose difference
        # cancels (every digit at d = 1e9); formed as the quotient
        # -2 a0 pi^2 k^2 / (d + sqrt(d^2 - 4 a0)) it is good to a few ulps.
        # The closed form's + roots are the same values.
        import mpmath

        cfg = constant_cfg(value=d, n_modes=12)
        bounds = beam_bounds(cfg)
        with mpmath.workdps(50):
            exact = [float((-d + mpmath.sqrt(mpmath.mpf(d) ** 2 - 4)) / 2 * mpmath.pi ** 2 * k * k)
                     for k in range(1, 13)]
        assert len(bounds.upper_n) == len(bounds.lower_n) == 12
        for ends in (bounds.upper_n, bounds.lower_n, beam_closed_form(cfg)[:12].real):
            err = np.abs(np.array(ends) - exact) / np.abs(exact)
            assert np.max(err) <= 4 * np.finfo(float).eps, err

    def test_overflowing_damping_rejected(self):
        with pytest.raises(InvalidArgumentError, match="not finite"):
            beam_bounds(constant_cfg(value=1e306, n_modes=4))

    def test_variable_profile_uses_both_ends(self):
        bounds = beam_bounds(sine_cfg(n_modes=12))
        assert bounds.applicable
        assert bounds.d_min == 4.0 and bounds.d_max == 5.0
        assert bounds.n_min_count == 2
        assert bounds.upper_n[0] == pytest.approx((-5.0 + np.sqrt(21.0)) / 2.0 * np.pi**2)
        assert bounds.lower_n[0] == pytest.approx((-2.0 + np.sqrt(3.0)) * np.pi**2)


class TestTheorem:
    def test_constant_beam(self):
        report = verify_beam_theorem(constant_cfg(value=4.0, n_modes=8))
        assert report.ok, report.failures()

    def test_variable_beam(self):
        report = verify_beam_theorem(sine_cfg(n_modes=8))
        assert report.ok, report.failures()

    def test_hypothesis_failure_reported(self):
        report = verify_beam_theorem(constant_cfg(value=1.0, n_modes=4))
        assert not report.ok
        assert report.checks[0].label == "hypothesis_d_min_sq_ge_4a0"

    def test_empty_result_fails_the_count(self, monkeypatch):
        # Negative control: a located result with no eigenvalue fails
        # count_at_least_guaranteed (its n_min is at least 1), and no other
        # check repeats it.
        locate = variational.locate_real_eigenvalues
        monkeypatch.setattr(variational, "locate_real_eigenvalues", lambda *args: (
            dataclasses.replace(locate(*args), eigenvalues=np.empty(0), n_found=0,
                                per_eigenvalue=())))
        report = verify_beam_theorem(constant_cfg(value=4.0, n_modes=8))
        assert [c.label for c in report.checks] == ["alpha_below_interval",
                                                     "count_at_least_guaranteed"]
        assert report.failures() == report.checks[1:]
        assert report.checks[1].data == {"n_found": 0, "n_min": 2}


class TestAlphaGate:
    """verify_beam_theorem refines alpha only until the gate is decided."""

    @pytest.mark.parametrize("n_modes", [12, 50, 100, 150, 200])
    @pytest.mark.parametrize("profile", ["constant", "four_plus_sin"])
    def test_verdict_is_the_fully_refined_one(self, monkeypatch, profile, n_modes):
        cfg = constant_cfg(n_modes=n_modes) if profile == "constant" else sine_cfg(n_modes)
        calls = []
        support = pencil_mod._support
        monkeypatch.setattr(pencil_mod, "_support", lambda *args: calls.append(1) or support(*args))
        check = verify_beam_theorem(cfg).checks[0]
        support_calls = len(calls)
        refined = compute_alpha(discretize_beam(cfg))
        assert check.label == "alpha_below_interval"
        assert check.ok == within_alpha(check.data["interval_lower"], refined.upper)
        lower, upper = check.data["alpha_bracket"]
        assert upper == check.data["alpha"] >= refined.upper
        assert lower is None or lower <= refined.lower
        if (profile, n_modes) == ("four_plus_sin", 200):
            # The first polygon of ALPHA_SWEEP support lines decides it.
            assert support_calls == 1

    def test_witnessed_lower_end_decides_a_failed_gate(self, monkeypatch):
        def brackets(pencil):
            yield AlphaResult(-19.0, -18.0, np.eye(pencil.dim)[0])
            raise AssertionError("alpha refined past a decided gate")

        monkeypatch.setattr(beam, "alpha_brackets", brackets)
        report = verify_beam_theorem(constant_cfg())
        assert [c.label for c in report.checks] == ["alpha_below_interval"]
        assert not report.ok
        assert report.checks[0].data["alpha_bracket"] == [-19.0, -18.0]

