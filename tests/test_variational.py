import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpencil import (
    BeamConfig,
    ComputationError,
    IntervalDelta,
    InvalidArgumentError,
    QuadraticPencil,
    beam_closed_form,
    build_linearization,
    compute_alpha,
    discretize_beam,
    full_spectrum,
    inertia_negative,
    locate_real_eigenvalues,
    make_damping_profile,
    verify_minmax,
)
from quadpencil import build_pencil, load_config, rayleigh_pair, variational
from quadpencil.config import random_pencil
from quadpencil.pencil import EIGEN_TOL, _orth

from oracles import (
    constrained_sups,
    det_poly_real_roots_mp,
    exact_inertia,
    min_p_plus_reference,
    p_plus_on_plane,
    pencil_eigenvectors,
    quad_roots,
    random_minima_loop,
    real_eigenvalues_in,
    real_roots_polished,
    semisimplicity_check,
    sup_p_plus_reference,
)

SQRT7 = np.sqrt(7.0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Simple eigenvalues in (IntervalDelta.inside(alpha), 0] on each shipped config.
FOUND_ON_CONFIG = {
    "beam_const4.json": 2, "beam_const5.json": 3, "beam_sin.json": 3,
    "dense_diag.json": 1, "interlace_violation_a.json": 1,
    "interlace_violation_b.json": 1, "random_dim4.json": 2,
}


def sourced(source, request=None):
    """The pencil of a shipped config (its file name), of a beam (profile,
    n_modes, constant damping value), of a seeded random pencil (dim, seed)
    or of the rotated_pencil fixture, and its located real eigenvalues."""
    if source == "rotated":
        pencil = request.getfixturevalue("rotated_pencil")
    elif isinstance(source, str):
        pencil = build_pencil(load_config(CONFIGS / source))
    elif isinstance(source[0], str):
        profile, n_modes, value = source
        params = {} if value is None else {"value": value}
        pencil = discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(
            {"profile": profile, "params": params}), n_modes=n_modes))
    else:
        pencil = random_pencil(*source, damping_scale=5.0, ensure_real_root_cone=True)
    interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
    return pencil, locate_real_eigenvalues(pencil, interval, EIGEN_TOL)


class TestScalarRoots:
    """rayleigh_pair on 1x1 pencils [[c]], [[b]] at x = [s]: the roots of
    t^2 + b t + c, whatever the scale s of the vector."""

    def test_matches_companion_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.0, 10.0)
            c = rng.uniform(0.01, 10.0)
            pair = rayleigh_pair(QuadraticPencil([[c]], [[b]]), [s])
            ref = quad_roots(1.0, b, c)
            if not pair.in_dstar:
                assert ref.size == 0
            else:
                assert np.allclose([pair.p_minus, pair.p_plus], ref, rtol=1e-10, atol=1e-12)

    def test_cancellation_free(self):
        # huge b dwarfing 4ac: the small root must keep full precision
        pair = rayleigh_pair(QuadraticPencil([[1.0]], [[1e8]]), [1.0])
        assert pair.p_plus == pytest.approx(-1e-8, rel=1e-12)


class TestInertia:
    def test_at_zero(self, diag_pencil):
        ic = inertia_negative(diag_pencil, 0.0)
        assert ic.negative == 0 and ic.boundary == 0

    def test_between_roots(self, diag_pencil):
        assert inertia_negative(diag_pencil, -1.0).negative == 1

    def test_far_left(self, diag_pencil):
        assert inertia_negative(diag_pencil, -100.0).negative == 0

    def test_boundary_flag_at_eigenvalue(self, diag_pencil):
        ic = inertia_negative(diag_pencil, -3.0 + SQRT7)
        assert ic.boundary >= 1

    def test_monotone_on_valid_interval(self, diag_pencil):
        alpha = compute_alpha(diag_pencil).alpha
        grid = np.linspace(alpha * (1 - 1e-9), 0.0, 200)
        counts = [inertia_negative(diag_pencil, g).negative for g in grid]
        assert all(c1 >= c2 for c1, c2 in zip(counts, counts[1:]))

    @pytest.mark.parametrize("source", [
        *sorted(FOUND_ON_CONFIG), "rotated",
        *((profile, n, 4.0 if profile == "constant" else None)
          for profile in ("constant", "four_plus_sin") for n in (12, 20, 30)),
        *((2 + seed % 13, 300 + seed) for seed in range(13))], ids=str)
    def test_counts_match_exact_inertia(self, request, source):
        # At every separator and bracket end of locate, the count on the
        # graded blocks is the exact rational inertia of T(mu), with no
        # boundary; at each located value, whose T is exactly nonsingular
        # in rationals, the exact count lies between the count's negative
        # and negative + boundary slots, both inertia_negative's and that of
        # the one decomposition of T(value) that locate and verify_minmax
        # read.
        pencil, res = sourced(source, request)
        ends = {0.0, res.interval.lower, *(x for d in res.per_eigenvalue for x in d.bracket)}
        for mu in sorted(ends):
            assert inertia_negative(pencil, mu) == exact_inertia(pencil, mu), mu
        for diag in res.per_eigenvalue:
            exact = exact_inertia(pencil, diag.value).negative
            for count in (inertia_negative(pencil, diag.value),
                          variational._graded_eigh(pencil, diag.value)[0]):
                assert count.negative <= exact <= count.negative + count.boundary, diag


class TestLocate:
    def test_diag_fixture(self, diag_pencil):
        res = locate_real_eigenvalues(diag_pencil, IntervalDelta(lower=-5.64), 1e-10)
        assert res.n_found == 1
        assert res.kappa == 0
        assert res.eigenvalues[0] == pytest.approx(-3.0 + SQRT7, abs=1e-12)
        diag = res.per_eigenvalue[0]
        assert diag.multiplicity == 1
        assert diag.semisimple
        # The residual is in units of the block's zero cut, 4 m eps of its
        # graded scale: T(value) is singular within the rounding.
        assert diag.residual <= 1.0

    def test_undamped_finds_nothing(self, undamped_pencil):
        res = locate_real_eigenvalues(undamped_pencil, IntervalDelta(lower=-50.0), 1e-10)
        assert res.n_found == 0

    def test_below_alpha_the_count_is_no_eigenvalue_count(self, diag_pencil):
        # The scope of locating by counts: (-7, 0] reaches below alpha
        # (about -2.14) and holds both roots -3 +- sqrt7 of the first mode,
        # but T(-7) is positive definite. Its count is 0, so locate finds
        # neither, though -3 + sqrt7 lies above alpha. IntervalDelta.inside,
        # the gate every caller takes, refuses -7.
        alpha = compute_alpha(diag_pencil).alpha
        assert -3.0 - SQRT7 < alpha < -3.0 + SQRT7
        assert inertia_negative(diag_pencil, -7.0).negative == 0
        assert locate_real_eigenvalues(diag_pencil, IntervalDelta(lower=-7.0), 1e-10).n_found == 0
        with pytest.raises(InvalidArgumentError, match="below alpha"):
            IntervalDelta.inside(alpha, -7.0)

    def test_beam_modes_inside_window(self):
        cfg = BeamConfig(
            a0=1.0,
            damping=make_damping_profile({"profile": "constant", "params": {"value": 4.0}}),
            n_modes=6,
        )
        pencil = discretize_beam(cfg)
        res = locate_real_eigenvalues(pencil, IntervalDelta(lower=-2.0 * np.pi**2), 1e-10)
        expected = (-2.0 + np.sqrt(3.0)) * np.pi**2 * np.array([1.0, 4.0])
        assert np.allclose(res.eigenvalues, expected, atol=1e-10)
        # the n = 3 branch value sits left of the window
        assert (-2.0 + np.sqrt(3.0)) * 9.0 * np.pi**2 < -2.0 * np.pi**2

    def test_alpha_gate(self):
        with pytest.raises(InvalidArgumentError, match="below alpha"):
            IntervalDelta.inside(-2.14, -5.0)

    def test_inside_default_margin(self):
        assert IntervalDelta.inside(-2.0).lower == -2.0 + 1e-6 * 2.0
        assert IntervalDelta.inside(-2.0, -1.5).lower == -1.5

    @pytest.mark.parametrize("alpha", [-0.5, -1e-3, -100.0])
    def test_inside_gate_slack(self, alpha):
        # 1e-9 max(1, |alpha|): a full 1e-9 at |alpha| < 1, relative above.
        slack = 1e-9 * max(1.0, abs(alpha))
        assert IntervalDelta.inside(alpha, alpha - 0.9 * slack).lower == alpha - 0.9 * slack
        with pytest.raises(InvalidArgumentError):
            IntervalDelta.inside(alpha, alpha - 1.1 * slack)

    def test_inside_empty_cone(self):
        # An empty cone (alpha = -inf) defaults to -(|D| + 1); without |D|
        # there is no default.
        assert IntervalDelta.inside(-np.inf, d_norm=3.0).lower == -4.0
        assert IntervalDelta.inside(-np.inf, d_norm=0.0).lower == -1.0
        with pytest.raises(InvalidArgumentError, match="empty"):
            IntervalDelta.inside(-np.inf)
        assert IntervalDelta.inside(-np.inf, -1e6).lower == -1e6
        assert IntervalDelta.inside(-np.inf, -1e6, 3.0).lower == -1e6
        # |D| sets only the empty cone's default.
        assert IntervalDelta.inside(-2.0, d_norm=3.0).lower == -2.0 + 1e-6 * 2.0

    def test_interval_validation(self):
        with pytest.raises(InvalidArgumentError):
            IntervalDelta(lower=1.0)

    def test_tol_validation(self, diag_pencil):
        with pytest.raises(InvalidArgumentError):
            locate_real_eigenvalues(diag_pencil, IntervalDelta(lower=-1.0), 0.0)

    def test_uncertified_bracket_raises(self, monkeypatch):
        # The certificate fed curve zeros that miss an eigenvalue: A0 = I,
        # D = diag(3, 4) has two in (lower, 0], and with the first block's
        # zero alone the bracket (lower, 0) holds a count jump of 2 against
        # multiplicity 1.
        pencil = QuadraticPencil(np.eye(2), np.diag([3.0, 4.0]))
        lower = (-3.0 - np.sqrt(5.0)) / 2.0 + 1e-6
        zeros = variational._curve_zeros

        def first_zero(p, end):
            values, steps, at_lower = zeros(p, end)
            return values[:1], steps[:1], at_lower

        monkeypatch.setattr(variational, "_curve_zeros", first_zero)
        with pytest.raises(ComputationError) as info:
            locate_real_eigenvalues(pencil, IntervalDelta(lower=lower), 1e-10)
        details = info.value.details
        assert details["bracket"] == (lower, 0.0) and details["multiplicity"] == 1
        assert details["counts"] == (2, 0)

    def test_near_critical_complex_pair_is_skipped(self):
        # The first mode's roots are -1 +- 3.2e-5 i, within 1e-8 |A| (about
        # 3e-4) of each other: they move no count, so only the second
        # mode's root above lower is found.
        pencil = QuadraticPencil(np.diag([1.0, 1e8]), np.diag([2.0 - 1e-9, 3e4]))
        root = -1.5e4 + np.sqrt(1.25e8)
        res = locate_real_eigenvalues(pencil, IntervalDelta(lower=-7e3), 1e-8)
        assert [d.multiplicity for d in res.per_eigenvalue] == [1]
        assert res.eigenvalues[0] == pytest.approx(root, rel=1e-12)

    @pytest.mark.parametrize("c, split", [(1.0, 1e-6), (1e-8, 1e-6), (100.0, 5e-9)])
    def test_values_closer_than_tol_are_one_entry(self, c, split):
        # Two blocks whose eigenvalues near -c lie about 1.3 split c apart
        # (the pencil lam^2 + 5 lam + 4 (1 + s) at lam -> lam / c): one entry
        # of multiplicity 2 at tol 1e-5 (their mean, certified by a count
        # jump of 2), two entries at tol 1e-8. The merge is relative below
        # modulus 1 and absolute above it: at c = 1e-8 the gap, 1.3e-14, is
        # below 1e-8 but not below 1e-8 c; at c = 100, 6.7e-7 is below
        # 1e-8 c but not below 1e-8, and the counts separate the two.
        pencil = QuadraticPencil(np.diag([4.0, 4.0 * (1.0 + split)]) * c * c,
                                 np.diag([5.0, 5.0]) * c)
        exact = [c * (-5.0 + np.sqrt(25.0 - 16.0 * (1.0 + s))) / 2.0 for s in (0.0, split)]
        interval = IntervalDelta(lower=-2.0 * c)
        (entry,) = locate_real_eigenvalues(pencil, interval, 1e-5).per_eigenvalue
        assert entry.multiplicity == 2
        assert entry.value == pytest.approx(np.mean(exact), rel=1e-12)
        res = locate_real_eigenvalues(pencil, interval, 1e-8)
        assert [d.multiplicity for d in res.per_eigenvalue] == [1, 1]
        assert np.allclose(res.eigenvalues, exact, rtol=1e-12, atol=0.0)
        # A false merge fails here: no kernel at the mean of two simple
        # eigenvalues. (At c = 1e-8 the attainers fail on the absolute
        # VERIFY_TOL, ROADMAP item 8.)
        kernel = [check.ok for check in verify_minmax(pencil, res).checks
                  if check.label == "kernel_dimension_matches_multiplicity"]
        assert kernel == [True, True]

    def test_semisimple_double_split_wider_than_tol(self):
        # A double eigenvalue in a stiff coupled pencil: the eigensolver may
        # split it by more than tol = 1e-12, which no inertia count can
        # separate; it is one entry of multiplicity 2.
        a = np.array([4.0, 4.0, 4e6])
        d = np.array([5.0, 5.0, 5e3])
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        pencil = QuadraticPencil(q @ np.diag(a) @ q.T, q @ np.diag(d) @ q.T)
        res = locate_real_eigenvalues(pencil, IntervalDelta(lower=-2.0), 1e-12)
        (entry,) = res.per_eigenvalue
        assert entry.multiplicity == 2
        assert entry.value == pytest.approx(-1.0, rel=1e-10)

    def test_matches_linearization_random(self):
        for seed in range(8):
            pencil = random_pencil(3 + seed % 6, 700 + seed, damping_scale=5.0,
                                   ensure_real_root_cone=True)
            interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
            lower = interval.lower
            res = locate_real_eigenvalues(pencil, interval, 1e-10)
            spec = full_spectrum(build_linearization(pencil))
            expected = []
            for lam, mult in real_eigenvalues_in(spec, lower):
                expected.extend([lam] * mult)
            assert len(expected) == res.n_found
            assert np.allclose(res.eigenvalues, expected, atol=1e-7)

    def test_rotated_ill_conditioned_pencil(self, rotated_pencil):
        # cond(A0) = 1e6; locate reads only T(mu), never the companion's
        # closed-form inverse, whose rounding defect here is about 2e-10.
        n = rotated_pencil.dim
        interval = IntervalDelta.inside(compute_alpha(rotated_pencil).alpha)
        lower = interval.lower
        res = locate_real_eigenvalues(rotated_pencil, interval, 1e-10)
        raw = np.block([[np.zeros((n, n)), np.eye(n)],
                        [-rotated_pencil.a0_matrix, -rotated_pencil.d_matrix]])
        w = np.linalg.eigvals(raw)
        expected = np.sort(w.real[(np.abs(w.imag) <= 1e-12) & (w.real > lower)])[::-1]
        assert expected.size == 2
        assert np.allclose(res.eigenvalues, expected, rtol=1e-8, atol=1e-14)

    def test_matches_mpmath_determinant_oracle(self):
        # Independent of the companion matrix: real roots of det T(lam) at 50
        # digits, on the acceptance ensemble's pencils of dim <= 4 and on two
        # semisimple double eigenvalues.
        pencils = [
            random_pencil(2 + seed % 5, seed, damping_scale=4.0 + seed % 3,
                          ensure_real_root_cone=True)
            for seed in range(50) if seed % 5 <= 2
        ]
        pencils += [
            random_pencil(2 + seed % 3, 3000 + seed, damping_scale=3.0 + seed % 4,
                          ensure_real_root_cone=True)
            for seed in range(40)
        ]
        pencils += [
            QuadraticPencil(np.diag([3.0, 3.0]), np.diag([7.0, 7.0])),
            QuadraticPencil(np.diag([2.0, 2.0, 8.0]), np.diag([6.0, 6.0, 2.0])),
        ]
        found = 0
        for pencil in pencils:
            interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
            lower = interval.lower
            res = locate_real_eigenvalues(pencil, interval, 1e-10)
            exact = [r for r in det_poly_real_roots_mp(pencil.a0_matrix, pencil.d_matrix)
                     if lower < r <= 0.0]
            assert res.n_found == len(exact)
            assert np.allclose(res.eigenvalues, exact, rtol=1e-12, atol=0.0)
            found += res.n_found
        assert found >= len(pencils)

    def test_semisimple_and_derivative_positive_in_open_interval(self):
        for seed in range(6):
            pencil = random_pencil(4, 900 + seed, damping_scale=5.0,
                                   ensure_real_root_cone=True)
            interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
            lower = interval.lower
            res = locate_real_eigenvalues(pencil, interval, 1e-10)
            system = build_linearization(pencil)
            for diag in res.per_eigenvalue:
                if diag.value <= lower or diag.value >= 0.0:
                    continue
                assert diag.semisimple
                assert semisimplicity_check(system, diag.value)
                # derivative positivity at the root
                w, v = np.linalg.eigh(pencil.t_matrix(diag.value))
                x = v[:, int(np.argmin(np.abs(w)))]
                slope = 2.0 * diag.value * (x @ x) + x @ pencil.d_matrix @ x
                assert slope > 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 5),
           c=st.floats(1e-3, 1e3))
    def test_rescaling_scales_eigenvalues_and_brackets(self, seed, dim, c):
        # A0 -> c^2 A0, D -> c D multiplies every eigenvalue by c.
        pencil = random_pencil(dim, seed, damping_scale=6.0, ensure_real_root_cone=True)
        scaled = QuadraticPencil(c * c * pencil.a0_matrix, c * pencil.d_matrix)
        alpha = compute_alpha(pencil).alpha
        lower = alpha + 1e-6 * abs(alpha)
        base = locate_real_eigenvalues(pencil, IntervalDelta(lower=lower), 1e-10)
        res = locate_real_eigenvalues(scaled, IntervalDelta(lower=c * lower), 1e-10 * c)
        assert res.n_found == base.n_found
        assert ([d.multiplicity for d in res.per_eigenvalue]
                == [d.multiplicity for d in base.per_eigenvalue])
        assert np.allclose(res.eigenvalues, c * base.eigenvalues, rtol=1e-10, atol=0.0)
        for d, d_base in zip(res.per_eigenvalue, base.per_eigenvalue):
            assert np.allclose(d.bracket, c * np.array(d_base.bracket), rtol=1e-10, atol=0.0)

    def test_brackets_contain_closed_form_beam_50(self):
        # 50 modes, constant d = 4: the eigenvalues in (-2 pi^2, 0] are
        # (-2 + sqrt3) pi^2 k^2 for k = 1, 2. Each bracket must hold its
        # closed-form value and carry a count jump of its multiplicity.
        cfg = BeamConfig(
            a0=1.0,
            damping=make_damping_profile({"profile": "constant", "params": {"value": 4.0}}),
            n_modes=50,
        )
        pencil = discretize_beam(cfg)
        exact = beam_closed_form(cfg).real
        res = locate_real_eigenvalues(pencil, IntervalDelta(lower=-2.0 * np.pi**2), 1e-8)
        assert res.n_found == 2
        for diag in res.per_eigenvalue:
            lo, hi = diag.bracket
            inside = exact[(lo < exact) & (exact < hi)]
            assert inside.size == diag.multiplicity == 1
            assert diag.value == pytest.approx(inside[0], rel=1e-12)
            jump = (inertia_negative(pencil, lo).negative
                    - inertia_negative(pencil, hi).negative)
            assert jump == diag.multiplicity
        assert res.per_eigenvalue[0].bracket[1] == 0.0
        assert res.per_eigenvalue[-1].bracket[0] == -2.0 * np.pi**2

    @pytest.mark.parametrize("profile", [
        {"profile": "constant", "params": {"value": 4.0}},
        {"profile": "four_plus_sin", "params": {}},
    ])
    def test_each_t_matrix_eigensolved_once(self, monkeypatch, profile):
        # Every stack that reaches np.linalg.eigh or eigvalsh is a graded
        # T(mu) from graded_t, decomposed once; every other solve is the
        # eigvalsh of a compression (2-D). Within locate: the curves'
        # solves (their first is the count at lower), one count at each
        # other separator, and one decomposition of T(lam) per entry, whose
        # kernel carries one compression. Within verify_minmax: one
        # decomposition per entry, one count per distinct bracket end and
        # at lower, none at a located value, and three compressions per n.
        pencil = discretize_beam(BeamConfig(
            a0=1.0, damping=make_damping_profile(profile), n_modes=40))
        graded, solved, mus, lams = [], [], [], []

        def graded_t(*args, _original=variational.graded_t):
            t, scale = _original(*args)
            graded.append(t.copy())
            return t, scale

        monkeypatch.setattr(variational, "graded_t", graded_t)
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _name=name, _original=original, **kwargs):
                solved.append((_name, np.array(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        count, decompose = variational.inertia_negative, variational._graded_eigh
        monkeypatch.setattr(variational, "inertia_negative",
                            lambda p, mu: mus.append(mu) or count(p, mu))
        monkeypatch.setattr(variational, "_graded_eigh",
                            lambda p, lam: lams.append(lam) or decompose(p, lam))

        def solved_once(compressions):
            stacks = [a for _, a in solved if a.ndim == 3]
            assert len(stacks) == len(graded)
            assert all(np.array_equal(a, b) for a, b in zip(stacks, graded))
            for i, a in enumerate(stacks):
                assert not any(a.shape == b.shape and np.array_equal(a, b) for b in stacks[:i])
            assert [name for name, a in solved if a.ndim == 2] == ["eigvalsh"] * compressions
            return [name for name, a in solved if a.ndim == 3]

        res = locate_real_eigenvalues(pencil, IntervalDelta(lower=-2.0 * np.pi**2), 1e-8)
        values = [diag.value for diag in res.per_eigenvalue]
        assert res.n_found == 2 and len(graded) >= 5
        assert mus == [0.0, res.per_eigenvalue[1].bracket[1]]
        assert lams == values
        solved_once(len(values))
        for log in (graded, solved, mus, lams):
            log.clear()
        assert verify_minmax(pencil, res).ok
        assert lams == values
        assert sorted(mus) == sorted({res.interval.lower, *(
            mu for diag in res.per_eigenvalue for mu in diag.bracket)})
        blocks_per_solve = len(pencil.graded_blocks)
        assert sorted(solved_once(3 * res.n_found)) == sorted(
            ["eigh"] * len(lams) * blocks_per_solve + ["eigvalsh"] * len(mus) * blocks_per_solve)


class TestCountSteps:
    """The located values against independent ones: closed forms, polished
    companion roots, bisection alone, and a second call; and the memory of
    the shared solves."""

    @pytest.mark.parametrize("n_modes, d", [(12, 4.0), (50, 4.0), (100, 4.0), (150, 4.0),
                                            (200, 4.0), (12, 1e3), (12, 1e6), (12, 1e9)])
    def test_constant_beams_match_the_closed_form(self, n_modes, d):
        # Constant damping makes every block 1 x 1, a scalar quadratic whose
        # p_plus is its root: one count step per curve reaches it.
        cfg = BeamConfig(a0=1.0, damping=make_damping_profile(
            {"profile": "constant", "params": {"value": d}}), n_modes=n_modes)
        pencil = discretize_beam(cfg)
        interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
        res = locate_real_eigenvalues(pencil, interval, 1e-8)
        closed = beam_closed_form(cfg).real
        exact = -np.sort(-closed[(closed > interval.lower) & (closed <= 0.0)])
        assert res.n_found == exact.size >= 2
        assert np.max(np.abs(res.eigenvalues - exact) / np.abs(exact)) <= 1e-13
        assert [diag.iterations for diag in res.per_eigenvalue] == [1] * exact.size

    @pytest.mark.parametrize("profile, n_modes", [("four_plus_sin", 50), ("four_plus_sin", 150),
                                                  ("affine", 50), ("affine", 150)])
    def test_graded_beams_match_polished_companion_roots(self, profile, n_modes):
        # Coupled blocks, where one p_plus step is not exact: the real roots
        # of the whole companion, polished by test-side root steps on the
        # whole graded T, within 1e-12 relative (fixed before the first run).
        params = {"intercept": 4.0, "slope": 1.0} if profile == "affine" else {}
        pencil = discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(
            {"profile": profile, "params": params}), n_modes=n_modes))
        interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
        res = locate_real_eigenvalues(pencil, interval, 1e-8)
        exact = real_roots_polished(pencil, interval.lower)
        assert res.n_found == exact.size >= 2
        assert np.max(np.abs(res.eigenvalues - exact) / np.abs(exact)) <= 1e-12

    def test_peak_memory_is_a_few_n_by_n_arrays(self):
        # One dense 150 x 150 block with over 100 eigenvalues in (alpha, 0]:
        # its curves share each solve, so the peak stays within 16 n x n
        # float arrays; one m x m copy per curve would pass 20 MB per array.
        pencil = random_pencil(150, 5, damping_scale=20.0, ensure_real_root_cone=True)
        interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
        tracemalloc.start()
        try:
            res = locate_real_eigenvalues(pencil, interval, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_found >= 100
        assert peak <= 16 * 8 * pencil.dim**2

    def test_bisection_alone_locates_every_eigenvalue(self, monkeypatch):
        # The fallback: with every p_plus step refused (outside the cone),
        # each curve is bisected by its counts until its bracket is within
        # the rounding of |mu|, and still lands on every eigenvalue.
        monkeypatch.setattr(variational, "_roots_from_forms", lambda a, b, c: (
            a, np.full(a.shape, -np.inf), np.zeros(a.shape, dtype=bool)))
        pencils = [random_pencil(2 + seed % 3, 3100 + seed, damping_scale=5.0,
                                 ensure_real_root_cone=True) for seed in range(6)]
        pencils.append(QuadraticPencil(np.diag([2.0, 2.0, 8.0]), np.diag([6.0, 6.0, 2.0])))
        for pencil in pencils:
            interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
            res = locate_real_eigenvalues(pencil, interval, 1e-10)
            exact = [r for r in det_poly_real_roots_mp(pencil.a0_matrix, pencil.d_matrix)
                     if interval.lower < r <= 0.0]
            assert res.n_found == len(exact) >= 1
            assert np.allclose(res.eigenvalues, exact, rtol=1e-12, atol=0.0)
            assert all(diag.iterations >= 20 * diag.multiplicity for diag in res.per_eigenvalue)

    @pytest.mark.parametrize("source", [*sorted(FOUND_ON_CONFIG), ("four_plus_sin", 100)])
    def test_two_calls_give_the_same_bits(self, source):
        # Each call on a pencil built afresh: values, brackets, count steps,
        # residuals and verdicts all equal, bit for bit.
        def located():
            if isinstance(source, str):
                pencil = build_pencil(load_config(CONFIGS / source))
            else:
                pencil = discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(
                    {"profile": source[0], "params": {}}), n_modes=source[1]))
            interval = IntervalDelta.inside(compute_alpha(pencil).alpha)
            return locate_real_eigenvalues(pencil, interval, 1e-8)

        first, second = located(), located()
        assert first.n_found >= 1
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.per_eigenvalue == second.per_eigenvalue


class TestVerifyMinmax:
    def test_diag_fixture(self, diag_pencil):
        alpha = compute_alpha(diag_pencil).alpha
        res = locate_real_eigenvalues(
            diag_pencil, IntervalDelta(lower=alpha + 1e-6 * abs(alpha)), 1e-10
        )
        report = verify_minmax(diag_pencil, res)
        assert report.ok, report.failures()
        # achievement witness: the first eigenvector's root IS lambda_1
        assert rayleigh_pair(diag_pencil, [1.0, 0.0]).p_plus == pytest.approx(
            res.eigenvalues[0], abs=1e-12
        )

    @pytest.mark.parametrize("shift", [-1e-3, 1e-3])
    def test_kernel_count_of_a_missed_eigenvalue_is_zero(self, diag_pencil, shift):
        # Negative control: a located value 1e-3 off the eigenvalue -3 + sqrt7
        # leaves T(value) nonsingular, so no eigenvalue of T is below the
        # kernel cut and the kernel dimension is 0, not the multiplicity.
        # Above the eigenvalue T(value) is positive definite: the
        # nonpositive subspace is empty and its min p_plus is +inf.
        alpha = compute_alpha(diag_pencil).alpha
        res = locate_real_eigenvalues(
            diag_pencil, IntervalDelta(lower=alpha + 1e-6 * abs(alpha)), 1e-10)
        (diag,) = res.per_eigenvalue
        off = diag.value + shift
        res = dataclasses.replace(
            res, eigenvalues=np.array([off]),
            per_eigenvalue=(dataclasses.replace(diag, value=off),))
        report = verify_minmax(diag_pencil, res)
        checks = {c.label: c for c in report.checks}
        check = checks["kernel_dimension_matches_multiplicity"]
        assert not check.ok and check.data["kernel_dim"] == 0
        assert checks["nonpositive_subspace_dimension"].data["dimension"] == (shift < 0)
        assert not checks["achievement_spectral_subspace"].ok

    @pytest.mark.parametrize("source", [
        *(("constant", 12, d) for d in (4.0, 100.0, 1e3, 1e4, 1e6)),
        ("four_plus_sin", 12, None), ("four_plus_sin", 50, None),
        *((2 + seed % 8, seed) for seed in range(32))], ids=str)
    def test_moved_eigenvalue_fails_the_kernel_dimension(self, source):
        # Negative control: each located eigenvalue moved by 1e-6 relative,
        # up and down, inside its bracket leaves T(value) nonsingular, so its
        # count has an empty boundary slot and the kernel dimension check
        # fails.
        pencil, res = sourced(source)
        assert res.n_found >= 1
        for k, diag in enumerate(res.per_eigenvalue):
            for sign in (1.0, -1.0):
                moved = diag.value * (1.0 + sign * 1e-6)
                assert diag.bracket[0] < moved < diag.bracket[1]
                entries = list(res.per_eigenvalue)
                entries[k] = dataclasses.replace(diag, value=moved)
                doctored = dataclasses.replace(res, per_eigenvalue=tuple(entries), eigenvalues=(
                    np.array([e.value for e in entries for _ in range(e.multiplicity)])))
                check = [c for c in verify_minmax(pencil, doctored).checks
                         if c.label == "kernel_dimension_matches_multiplicity"][k]
                assert not check.ok and check.data["kernel_dim"] == 0, (k, sign)

    def test_peak_memory_is_a_few_n_by_n_arrays(self):
        # One dense 150 x 150 block with over 100 eigenvalues in (alpha, 0]:
        # one decomposition of T(lambda) is held at a time and the checks
        # keep copies of their witnesses, so the peak stays within 16 n x n
        # float arrays; a decomposition kept per entry would pass 20 MB.
        pencil = random_pencil(150, 5, damping_scale=20.0, ensure_real_root_cone=True)
        res = locate_real_eigenvalues(
            pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-8)
        tracemalloc.start()
        try:
            report = verify_minmax(pencil, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_found >= 100 and report.ok, report.failures()
        assert peak <= 16 * 8 * pencil.dim**2

    def test_random_coupled(self):
        for seed in (1, 4):
            pencil = random_pencil(5, 1000 + seed, damping_scale=8.0,
                                   ensure_real_root_cone=True)
            res = locate_real_eigenvalues(
                pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-10)
            assert res.n_found >= 1
            report = verify_minmax(pencil, res)
            assert report.ok, report.failures()

    @settings(max_examples=25, deadline=None)
    @given(source=st.one_of(st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))),
                            st.tuples(st.integers(2, 6), st.integers(0, 10_000))),
           draw_seed=st.integers(0, 2**32 - 1))
    def test_random_subspaces_agree_with_inertia_counts(self, source, draw_seed):
        # The random probe, independent of the counts: where the counts pass
        # both clauses, no seeded random n-dimensional subspace has min p_plus
        # above lambda_n, and none of dimension N + 1 above the lower end.
        if isinstance(source, str):
            pencil = build_pencil(load_config(CONFIGS / source))
        else:
            pencil = random_pencil(*source, damping_scale=8.0, ensure_real_root_cone=True)
        res = locate_real_eigenvalues(
            pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-10)
        counted = [c for c in verify_minmax(pencil, res).checks
                   if c.label in ("maxmin_upper_by_inertia", "exhaustion_above_n")]
        assert len(counted) == min(res.n_found + 1, pencil.dim)
        assert all(c.ok for c in counted), counted
        rng = np.random.default_rng(draw_seed)
        bounds = [*res.eigenvalues, res.interval.lower][:pencil.dim]
        for n, bound in enumerate(bounds, start=1):
            oracle = random_minima_loop(pencil, rng, n, 10, bound, variational.VERIFY_TOL)
            assert oracle["violations"] == 0, (n, oracle)

    @staticmethod
    def located(name):
        pencil = build_pencil(load_config(CONFIGS / name))
        res = locate_real_eigenvalues(
            pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-10)
        assert res.n_found == FOUND_ON_CONFIG[name]
        return pencil, res

    @staticmethod
    def counted(pencil, res):
        return [c for c in verify_minmax(pencil, res).checks
                if c.label in ("maxmin_upper_by_inertia", "exhaustion_above_n")]

    @pytest.mark.parametrize("name", sorted(FOUND_ON_CONFIG))
    def test_counts_are_exact_and_match_exact_inertia(self, name):
        # Above lambda_n's bracket end lie exactly the n - 1 larger
        # eigenvalues, and above the lower end all N: the counts meet their
        # bounds with equality, and the exact rational inertia of T(mu)
        # agrees with the count on the pencil's graded blocks.
        pencil, res = self.located(name)
        counted = self.counted(pencil, res)
        assert [c.data["n"] for c in counted] == list(
            range(1, min(res.n_found + 1, pencil.dim) + 1))
        for check in counted:
            assert check.ok
            assert check.data["negative_count"] == check.data["n"] - 1
            exact = exact_inertia(pencil, check.data["mu"])
            assert (exact.negative, exact.boundary) == (check.data["negative_count"], 0)
        assert counted[-1].data["mu"] == res.interval.lower

    @pytest.mark.parametrize("name, dropped", [
        (name, k) for name, n_found in sorted(FOUND_ON_CONFIG.items()) for k in range(n_found)])
    def test_every_dropped_eigenvalue_is_caught(self, name, dropped):
        # Removing the k-th eigenvalue (0-based) from the result shifts every
        # smaller one up a place: from n = k + 1 on, the count at the n-th
        # bracket end, and at the lower end for n = N, is n > n - 1. The
        # checks before place k + 1 still pass.
        pencil, res = self.located(name)
        kept = tuple(d for i, d in enumerate(res.per_eigenvalue) if i != dropped)
        doctored = dataclasses.replace(
            res, eigenvalues=np.array([d.value for d in kept]), n_found=len(kept),
            per_eigenvalue=kept)
        counted = self.counted(pencil, doctored)
        assert [c.ok for c in counted] == [n <= dropped for n in range(1, res.n_found + 1)]
        assert [c.label for c in counted[dropped:]] == (
            ["maxmin_upper_by_inertia"] * (res.n_found - 1 - dropped) + ["exhaustion_above_n"])
        for n, check in enumerate(counted[dropped:], start=dropped + 1):
            assert check.data["n"] == n and check.data["negative_count"] == n
            assert exact_inertia(pencil, check.data["mu"]).negative == n
        assert counted[-1].data["mu"] == res.interval.lower


    @pytest.mark.parametrize("name", sorted(FOUND_ON_CONFIG))
    def test_fabricated_eigenvalue_fails_the_minsup_count(self, name):
        # A fabricated eigenvalue below lambda_N, bracketed by (lower, m), m
        # the midpoint between lower and lambda_N, whose bracket becomes
        # (m, hi): no eigenvalue lies below lambda_N, so the count at lower
        # is N = n - 1 for the fabricated n = N + 1 and the min-sup clause
        # fails. The max-min count at m and the exhaustion count at lower
        # are N, within their bounds, so only the min-sup count sees it.
        pencil, res = self.located(name)
        big_n, last, lower = res.n_found, res.per_eigenvalue[-1], res.interval.lower
        mid = 0.5 * (lower + last.value)
        fake = dataclasses.replace(last, value=0.5 * (lower + mid), bracket=(lower, mid))
        entries = (*res.per_eigenvalue[:-1],
                   dataclasses.replace(last, bracket=(mid, last.bracket[1])), fake)
        doctored = dataclasses.replace(
            res, eigenvalues=np.append(res.eigenvalues, fake.value), n_found=big_n + 1,
            per_eigenvalue=entries)
        report = verify_minmax(pencil, doctored)
        minsup = [c for c in report.checks if c.label == "minsup_lower_by_inertia"]
        assert [c.ok for c in minsup] == [True] * big_n + [False]
        assert minsup[-1].data == {"n": big_n + 1, "eigenvalue": fake.value, "mu": lower,
                                   "negative_count": big_n}
        assert all(c.ok for c in self.counted(pencil, doctored))

    @pytest.mark.parametrize("source", [*sorted(FOUND_ON_CONFIG), ("four_plus_sin", 50),
                                        ("constant", 50), ("four_plus_sin", 100),
                                        ("constant", 100)])
    def test_dual_constraint_is_the_padded_negative_subspace(self, source):
        # Courant-Fischer's constraint, the eigenvectors of the n - 1
        # smallest eigenvalues of T(lambda_n), has n - 1 columns, and they
        # are the strictly negative eigenvectors padded with kernel vectors:
        # #negative <= n - 1 <= #negative + #kernel wherever counts certify.
        if isinstance(source, str):
            pencil, res = self.located(source)
        else:
            profile, n_modes = source
            params = {"value": 4.0} if profile == "constant" else {}
            pencil = discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(
                {"profile": profile, "params": params}), n_modes=n_modes))
            res = locate_real_eigenvalues(
                pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-8)
            assert res.n_found >= 2
        duals = [c for c in verify_minmax(pencil, res).checks
                 if c.label == "dual_spectral_subspace"]
        assert [c.data["constraint_dim"] for c in duals] == list(range(res.n_found))
        for n, lam in enumerate(res.eigenvalues, start=1):
            count, w, x = variational._graded_eigh(pencil, lam)
            negative, kernel = x[:, w < -1.0], x[:, np.abs(w) <= 1.0]
            assert (negative.shape[1], kernel.shape[1]) == (count.negative, count.boundary)
            assert negative.shape[1] <= n - 1 <= negative.shape[1] + kernel.shape[1]
            padded = np.column_stack([negative, kernel[:, :n - 1 - negative.shape[1]]])
            assert np.array_equal(padded, x[:, :n - 1])
            # The vectors are G y, y orthonormal eigenvectors of G T G: the
            # constraint G^{-1} y, in the direction diag(A0) x, is
            # orthogonal to the others, and the witness is a kernel vector.
            constraint = np.diagonal(pencil.a0_matrix)[:, None] * x[:, :n - 1]
            inner = constraint.T @ x[:, n - 1:]
            assert np.all(np.abs(inner) <= 1e-12 * np.linalg.norm(constraint, axis=0)[:, None])
            witness = duals[n - 1].data["witness"]
            assert any(np.array_equal(witness, k) for k in kernel.T)

    @settings(max_examples=25, deadline=None)
    @given(source=st.one_of(st.sampled_from(sorted(p.name for p in CONFIGS.glob("*.json"))),
                            st.tuples(st.integers(2, 6), st.integers(0, 10_000))),
           draw_seed=st.integers(0, 2**32 - 1))
    def test_constrained_sups_agree_with_the_minsup_count(self, source, draw_seed):
        # The sampled min-sup check, kept as an oracle independent of the
        # counts: where every count passes, sup p_plus orthogonal to the
        # first n - 1 pencil eigenvectors, and orthogonal to seeded random
        # (n-1)-dimensional constraints, is at least lambda_n.
        if isinstance(source, str):
            pencil = build_pencil(load_config(CONFIGS / source))
        else:
            pencil = random_pencil(*source, damping_scale=8.0, ensure_real_root_cone=True)
        res = locate_real_eigenvalues(
            pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-10)
        counted = [c for c in verify_minmax(pencil, res).checks
                   if c.label == "minsup_lower_by_inertia"]
        assert [c.data["n"] for c in counted] == list(range(1, res.n_found + 1))
        assert all(c.ok for c in counted), counted
        eigenvectors = pencil_eigenvectors(pencil, res)
        rng = np.random.default_rng(draw_seed)
        for n, lam in enumerate(res.eigenvalues, start=1):
            constraints = [eigenvectors[:, :n - 1]]
            constraints += [rng.standard_normal((pencil.dim, n - 1)) for _ in range(3)]
            sups = constrained_sups(pencil, constraints)
            assert all(sup >= lam - variational.VERIFY_TOL for sup in sups), (n, lam, sups)

    @pytest.mark.parametrize("name, sign", [
        (name, sign) for name in sorted(FOUND_ON_CONFIG) for sign in (1, -1)])
    def test_moved_eigenvalue_fails_every_attainer(self, name, sign):
        # Each located eigenvalue moved by 10 VERIFY_TOL, up (sign 1) or
        # down: all three attainers at its n fail. The definiteness half
        # fails on the predicted side: a move up leaves a direction with
        # p_plus below mu = moved - VERIFY_TOL in both achievement
        # subspaces, a move down one with p_plus above moved + VERIFY_TOL in
        # the dual's.
        pencil, res = self.located(name)
        attainers = ("achievement_eigenvector_span", "achievement_spectral_subspace",
                     "dual_spectral_subspace")
        for k, diag in enumerate(res.per_eigenvalue):
            moved = diag.value + sign * 10.0 * variational.VERIFY_TOL
            entries = list(res.per_eigenvalue)
            entries[k] = dataclasses.replace(diag, value=moved)
            values = res.eigenvalues.copy()
            values[k] = moved
            doctored = dataclasses.replace(res, eigenvalues=values, per_eigenvalue=tuple(entries))
            checks = {c.label: c for c in verify_minmax(pencil, doctored).checks
                      if c.label in attainers and c.data["n"] == k + 1}
            assert sorted(checks) == sorted(attainers)
            assert not any(c.ok for c in checks.values())
            indefinite = {label for label, c in checks.items() if c.data["margin"] <= 0.0}
            assert indefinite == (set(attainers[:2]) if sign > 0 else {attainers[2]})


class TestCompressedExtrema:
    def test_sup_reports_the_eigenvalue_that_attains_it(self):
        # beam_const5, n = 3: the kernel vector of mode 3 is a root of both
        # -18.539 and -425.593, and its p_plus is lambda_3 = -18.539, before
        # and after a 1-ulp change of D (which once swapped the two roots).
        base = build_pencil(load_config(CONFIGS / "beam_const5.json"))
        lam3 = 9.0 * np.pi**2 * (-5.0 + np.sqrt(21.0)) / 2.0
        for direction in (None, np.inf, 0.0):
            d = np.array(base.d_matrix)
            if direction is not None:
                d[0, 0] = np.nextafter(d[0, 0], direction)
            pencil = QuadraticPencil(base.a0_matrix, d)
            interval = IntervalDelta.inside(compute_alpha(pencil).upper)
            report = verify_minmax(pencil, locate_real_eigenvalues(pencil, interval, 1e-8))
            dual = [c for c in report.checks if c.label == "dual_spectral_subspace"]
            assert dual[2].ok
            assert dual[2].data["p_plus"] == pytest.approx(lam3, rel=1e-12)

    def test_plane_grid_oracle(self):
        # The references for min and sup p_plus on a subspace against a
        # dense direction grid of random planes.
        rng = np.random.default_rng(11)
        kinds = {"certified": 0, "outside": 0, "sup": 0}
        for seed in range(12):
            pencil = random_pencil(3 + seed % 4, 1200 + seed, damping_scale=8.0,
                                   ensure_real_root_cone=True)
            for _ in range(10):
                basis = _orth(rng.standard_normal((pencil.dim, 2)))
                grid = p_plus_on_plane(pencil, basis)
                finite = grid[np.isfinite(grid)]
                pad = 1e-12 * max(1.0, np.max(np.abs(finite), initial=0.0))
                low, witness, certificate = min_p_plus_reference(pencil, basis)
                high = sup_p_plus_reference(pencil, basis)
                assert not np.isnan(low)
                if low == -np.inf:
                    assert not rayleigh_pair(pencil, witness).in_dstar
                else:
                    assert rayleigh_pair(pencil, witness).p_plus == low
                assert low <= np.min(grid) + pad
                assert high >= np.max(grid) - pad
                # the grid misses an interior extremum by (half-spacing)^2 x curvature
                if certificate is not None:
                    kinds["certified"] += 1
                    assert np.all(np.isfinite(grid))
                    assert np.min(grid) - low <= 1e-6 * abs(low)
                else:
                    kinds["outside"] += 1
                    assert low == -np.inf and witness is not None
                if high > -np.inf:
                    kinds["sup"] += 1
                    assert high - np.max(grid) <= 1e-6 * abs(high)
        assert min(kinds.values()) >= 10, kinds

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 10_000), k=st.integers(1, 6),
           offsets=st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=4))
    def test_definite_margin_bounds_the_extrema(self, dim, seed, k, offsets):
        # Where _definite_margin says B^T T(mu) B is negative definite, the
        # min of p_plus over span(B) is at least mu; where it says positive
        # definite at mu > alpha, the sup is at most mu. mu is placed at
        # relative offsets from the reference extremum; each reference is
        # p_plus at an explicit vector, good to the rounding of rayleigh_pair.
        pencil = random_pencil(dim, seed, damping_scale=8.0, ensure_real_root_cone=True)
        basis = _orth(np.random.default_rng(seed).standard_normal((dim, min(k, dim))))
        alpha = compute_alpha(pencil).alpha
        low = min_p_plus_reference(pencil, basis)[0]
        high = sup_p_plus_reference(pencil, basis)
        pad = variational.ROUNDING_ULPS * pencil.dim * np.finfo(float).eps
        for offset in offsets:
            mu = low * (1.0 + offset)
            if np.isfinite(low) and variational._definite_margin(pencil, basis, mu, -1) > 0.0:
                assert low >= mu - pad * abs(mu), (low, mu)
            mu = high * (1.0 + offset)
            if (np.isfinite(high) and mu > alpha
                    and variational._definite_margin(pencil, basis, mu, 1) > 0.0):
                assert high <= mu + pad * abs(mu), (high, mu)

    def test_jordan_pencil(self):
        # A0 = [[1, 1], [1, 3]], D = [[2, 1], [1, 2]]: -1 is a defective
        # double eigenvalue at alpha and the sup of p_plus over R^2, so no
        # eigenvalue lies in (alpha, 0] and the report is the exhaustion
        # clause. The sign form still brackets the sup: T(mu) is positive
        # definite at mu = -1 + 10 VERIFY_TOL, and the kernel vector e1 of
        # T(-1) has p_plus = -1.
        pencil = QuadraticPencil([[1.0, 1.0], [1.0, 3.0]], [[2.0, 1.0], [1.0, 2.0]])
        res = locate_real_eigenvalues(
            pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-8)
        report = verify_minmax(pencil, res)
        assert report.ok, report.failures()
        assert [c.label for c in report.checks] == ["exhaustion_above_n"]
        mu = -1.0 + 10.0 * variational.VERIFY_TOL
        assert variational._definite_margin(pencil, np.eye(2), mu, 1) > 0.0
        assert rayleigh_pair(pencil, [1.0, 0.0]).p_plus == -1.0

    def test_verify_minmax_makes_no_eig_call(self, monkeypatch):
        # The attainers are decided by eigvalsh of the compressions: no
        # general eig of a compressed companion.
        pencil = discretize_beam(BeamConfig(
            a0=1.0, damping=make_damping_profile({"profile": "four_plus_sin", "params": {}}),
            n_modes=40))
        res = locate_real_eigenvalues(
            pencil, IntervalDelta.inside(compute_alpha(pencil).alpha), 1e-8)
        calls = []
        original = np.linalg.eig

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counting)
        report = verify_minmax(pencil, res)
        assert res.n_found >= 2 and report.ok, report.failures()
        assert calls == []

    def test_cone_boundary_settled_by_inertia_count(self, critical_1x1):
        # R^1 touches the cone's boundary (double root -1): no mu makes the
        # compression negative definite and no vector leaves the cone, so the
        # exact minimum is inconclusive, but the exhaustion clause is settled
        # by the count at the lower end: T(-0.999999) = 1e-12 > 0.
        assert np.isnan(min_p_plus_reference(critical_1x1, np.eye(1))[0])
        res = locate_real_eigenvalues(critical_1x1, IntervalDelta(lower=-0.999999), 1e-10)
        assert res.n_found == 0
        report = verify_minmax(critical_1x1, res)
        assert report.ok, report.failures()
        (check,) = report.checks
        assert check.label == "exhaustion_above_n"
        assert check.data == {"n": 1, "mu": -0.999999, "negative_count": 0}

    @staticmethod
    def dropped(keep):
        """A0 = I, D = diag(3, 4): eigenvalues (-4+sqrt12)/2 > (-3+sqrt5)/2
        in (alpha, 0], alpha = (-3-sqrt5)/2. The located result with only
        the entry `keep` (0 or 1) left, and the interval's lower end."""
        pencil = QuadraticPencil(np.eye(2), np.diag([3.0, 4.0]))
        lower = (-3.0 - np.sqrt(5.0)) / 2.0 + 1e-6
        res = locate_real_eigenvalues(pencil, IntervalDelta(lower=lower), 1e-10)
        assert res.n_found == 2
        entry = res.per_eigenvalue[keep]
        res = dataclasses.replace(res, eigenvalues=np.array([entry.value]), n_found=1,
                                  per_eigenvalue=(entry,))
        return pencil, res, lower

    def test_missed_eigenvalue_is_a_violation(self):
        # Dropping the second eigenvalue leaves R^2, inside the cone, with
        # min p_plus = (-3+sqrt5)/2 above the lower end: T(lower) has two
        # negative eigenvalues against N = 1.
        pencil, res, lower = self.dropped(0)
        (check,) = verify_minmax(pencil, res).failures()
        assert check.label == "exhaustion_above_n"
        assert check.data == {"n": 2, "mu": lower, "negative_count": 2}
        # The random oracle agrees: every plane violates the clause.
        oracle = random_minima_loop(pencil, np.random.default_rng(0), 2, 20, lower,
                                    variational.VERIFY_TOL)
        assert oracle["violations"] == 20
        assert oracle["worst_excess"] == pytest.approx(
            (-3.0 + np.sqrt(5.0)) / 2.0 - lower, rel=1e-12)

    def test_missed_top_eigenvalue_is_a_violation(self):
        # Dropping the first eigenvalue makes (-3+sqrt5)/2 lambda_1, but the
        # line of the first mode has p_plus = (-4+sqrt12)/2 above it: at the
        # upper end of its bracket, the midpoint -0.325, T has one negative
        # eigenvalue against n - 1 = 0.
        pencil, res, _ = self.dropped(1)
        lam = float(res.eigenvalues[0])
        checks = {c.label: c for c in verify_minmax(pencil, res).checks}
        check = checks["maxmin_upper_by_inertia"]
        assert not check.ok
        assert check.data["n"] == 1 and check.data["eigenvalue"] == lam
        assert check.data["negative_count"] == 1
        assert check.data["mu"] == pytest.approx(-0.325, abs=1e-3)
        assert check.data["mu"] == res.per_eigenvalue[0].bracket[1]
        oracle = random_minima_loop(pencil, np.random.default_rng(0), 1, 20, lam,
                                    variational.VERIFY_TOL)
        assert oracle["violations"] > 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 5),
           c=st.floats(1e-3, 1e3))
    def test_verdicts_survive_rescaling(self, seed, dim, c):
        # A0 -> c^2 A0, D -> c D multiplies every eigenvalue by c.
        pencil = random_pencil(dim, seed, damping_scale=6.0, ensure_real_root_cone=True)
        scaled = QuadraticPencil(c * c * pencil.a0_matrix, c * pencil.d_matrix)
        verdicts = []
        for p in (pencil, scaled):
            res = locate_real_eigenvalues(
                p, IntervalDelta.inside(compute_alpha(p).alpha), 1e-10 * max(1.0, c))
            report = verify_minmax(p, res)
            verdicts.append([(check.label, check.ok) for check in report.checks])
        assert verdicts[0] == verdicts[1]
        assert all(ok for _, ok in verdicts[0])
