import collections
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import quadpencil.pencil as pencil_mod
from quadpencil import (
    BeamConfig,
    DstarVerdict,
    InvalidArgumentError,
    QuadraticPencil,
    blocks,
    compute_alpha,
    compute_delta_gamma,
    compute_scalars,
    disc_radius,
    discretize_beam,
    dstar_empty_certificate,
    make_damping_profile,
    rayleigh_batch,
    rayleigh_pair,
)
from quadpencil.config import build_pencil, load_config, random_pencil
from quadpencil.pencil import _span_candidates, alpha_brackets

from oracles import (
    beam_alpha_closed_form,
    grid_cone_crossings,
    p_minus_grid_2d,
    quad_roots,
    random_pencil_built_twice,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SQRT7 = np.sqrt(7.0)
# sup of p_minus for the diag(2,8)/diag(6,2) pencil. Derived independently:
# on the unit circle the discriminant (2+4c)^2 - 4(8-6c), c = cos^2(theta),
# vanishes at c = (-5+sqrt(53))/4, where p_minus = p_plus = -(1+2c); the
# dense grid oracle approaches this value from below.
ALPHA_DIAG = (3.0 - np.sqrt(53.0)) / 2.0


def sample_cone_points(pencil, count, seed):
    """Random vectors with real roots, harvested by rejection sampling around
    the certified witness."""
    rng = np.random.default_rng(seed)
    cert = dstar_empty_certificate(pencil)
    assert cert.witness is not None
    w = cert.witness / np.linalg.norm(cert.witness)
    out = []
    scale = 1.0
    while len(out) < count:
        batch = w[:, None] + scale * rng.standard_normal((pencil.dim, 4 * count))
        _, _, feas = rayleigh_batch(pencil, batch)
        got = batch[:, feas]
        out.extend(got.T[: count - len(out)])
        scale *= 0.7
    return np.array(out)


class TestConstruction:
    def test_symmetrizes_exactly(self):
        m = np.array([[2.0, 1.0], [0.0, 3.0]])
        pencil = QuadraticPencil(m, m.T)
        for sym in (pencil.a0_matrix, pencil.d_matrix):
            assert np.array_equal(sym, sym.T)
            assert np.array_equal(sym, [[2.0, 0.5], [0.5, 3.0]])

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(InvalidArgumentError, match="not positive definite"):
            QuadraticPencil(np.diag([1.0, -1.0]), np.eye(2))

    def test_diagonal_stiffness_definite_at_any_condition(self):
        # A diagonal A0 is read exactly: a positive diagonal is definite
        # however wide its range (a 1000-mode beam's spans 1e12).
        pencil = QuadraticPencil(np.diag([1.0, 1e13]), np.eye(2))
        assert pencil.a0_inv_norm == 1.0 and pencil.a0_norm == 1e13
        for diag in ([1.0, 0.0], [1.0, -1.0], [-0.0, 1e13], [1e13, -1e-300]):
            with pytest.raises(InvalidArgumentError, match="not positive definite"):
                QuadraticPencil(np.diag(diag), np.eye(2))

    def test_eigensolved_stiffness_keeps_the_relative_rule(self):
        # Rotated, the same eigenvalues 1e-13 and 1 come from an eigensolve,
        # whose rounding is of order 1e-16: at or below DEFINITENESS_TOL
        # times the largest they are rejected, above it accepted.
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[c, -s], [s, c]])
        for small, ok in ((1e-13, False), (1e-10, True)):
            a0 = q @ np.diag([small, 1.0]) @ q.T
            if ok:
                QuadraticPencil((a0 + a0.T) / 2.0, np.eye(2))
            else:
                with pytest.raises(InvalidArgumentError, match="not positive definite"):
                    QuadraticPencil((a0 + a0.T) / 2.0, np.eye(2))

    def test_rejects_negative_damping(self):
        with pytest.raises(InvalidArgumentError, match="not positive semidefinite"):
            QuadraticPencil(np.eye(2), np.diag([1.0, -1e-3]))

    def test_zero_damping_is_semidefinite(self):
        pencil = QuadraticPencil(np.eye(3), np.zeros((3, 3)))
        assert pencil.dim == 3
        assert pencil.d_norm == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError, match="dimension mismatch"):
            QuadraticPencil(np.eye(2), np.zeros((3, 3)))

    @pytest.mark.parametrize("a0, d", [
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.eye(2), np.ones(2)),
        (np.zeros((0, 0)), np.zeros((0, 0))),
        (np.eye(2), np.zeros((0, 0))),
    ])
    def test_rejects_non_square_or_empty(self, a0, d):
        with pytest.raises(InvalidArgumentError, match="expected a square matrix"):
            QuadraticPencil(a0, d)

    @pytest.mark.parametrize("a0, d", [
        (np.eye(2), np.diag([1.0, np.inf])),
        (np.diag([1.0, np.nan]), np.eye(2)),
        # Finite entries whose symmetrization overflows.
        (np.eye(2), [[1.0, 1.5e308], [1.5e308, 1.0]]),
    ])
    def test_rejects_non_finite(self, a0, d):
        with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match="not finite"):
            QuadraticPencil(a0, d)

    def test_entries_read_only(self, diag_pencil):
        with pytest.raises(ValueError):
            diag_pencil.a0_matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            diag_pencil.d_matrix[0, 0] = 5.0


    @pytest.mark.parametrize("pencil", [
        *(discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(spec), n_modes=n))
          for spec in ({"profile": "constant", "params": {"value": 4.0}},
                       {"profile": "four_plus_sin", "params": {}})
          for n in (12, 50, 150)),
        build_pencil(load_config(CONFIGS / "dense_diag.json")),
    ])
    def test_diagonal_a0_roots_are_the_eigh_products(self, pencil):
        # A diagonal A0 is read, not solved: its eigenvalues are eigh's, and
        # A0^{+-1/2} scale by its entries, bitwise the dense products of
        # eigh's eigenvectors.
        w, groups = pencil._a0_eig
        want_w, want_v = np.linalg.eigh(pencil.a0_matrix)
        assert np.array_equal(w, want_w)
        assert [v.shape for *_, v in groups] == [(pencil.dim, 1, 1)]
        sqrt, inv_sqrt = pencil.a0_sqrt_blocks.dense(), pencil.a0_inv_sqrt_blocks.dense()
        assert np.array_equal(sqrt, (want_v * np.sqrt(want_w)) @ want_v.T)
        assert np.array_equal(inv_sqrt, (want_v / np.sqrt(want_w)) @ want_v.T)
        d = pencil.d_matrix
        inv = (want_v / np.sqrt(want_w)) @ want_v.T
        s = inv @ d @ inv
        assert np.array_equal(pencil.whitened_damping, (s + s.T) / 2.0)

    def test_unsorted_repeated_diagonal_a0(self):
        diag = np.array([3.0, 1.0, 3.0, 2.0, 1.0, 1e-4])
        pencil = QuadraticPencil(np.diag(diag), np.eye(6))
        w, ((rows, block_w, v),) = pencil._a0_eig
        assert np.array_equal(w, np.sort(diag))
        assert np.array_equal(block_w[:, 0], diag[rows[:, 0]]) and np.all(v == 1.0)
        # Against the eigh route within its rounding, 4 n eps times the norm.
        ew, ev = np.linalg.eigh(np.diag(diag))
        eps = np.finfo(float).eps
        for got, want in ((pencil.a0_sqrt_blocks.dense(), (ev * np.sqrt(ew)) @ ev.T),
                          (pencil.a0_inv_sqrt_blocks.dense(), (ev / np.sqrt(ew)) @ ev.T)):
            assert np.max(np.abs(got - want)) <= 4 * 6 * eps * np.max(np.abs(want))
        assert np.array_equal(pencil.a0_sqrt_blocks.dense(), np.diag(np.sqrt(diag)))

    @pytest.mark.parametrize("pencil", [
        build_pencil(load_config(CONFIGS / "random_dim4.json")),
        *(random_pencil(dim, seed, damping_scale=2.0) for dim, seed in ((3, 1), (9, 2), (40, 3))),
        QuadraticPencil(scipy.linalg.block_diag([[2.0, 1.0], [1.0, 3.0]], [[5.0]],
                                                [[4.0, -1.0], [-1.0, 6.0]]), np.eye(5)),
    ])
    def test_dense_a0_roots_on_its_blocks(self, pencil):
        # An eigensolved A0: per block of A0's partition the products of
        # eigh's eigenvectors, exactly zero between blocks, one dense product
        # (bitwise eigh's of the whole A0) when A0 is one block; products
        # with the roots, as the whitened damping takes them, are the dense
        # products within rounding.
        part = blocks.partition(pencil.a0_matrix)
        sqrt, inv = pencil.a0_sqrt_blocks.dense(), pencil.a0_inv_sqrt_blocks.dense()
        labels = np.empty(pencil.dim, dtype=int)
        for block, rows in enumerate(r for _, group in part.groups for r in group):
            labels[rows] = block
        off_block = labels[:, None] != labels[None, :]
        assert np.all(sqrt[off_block] == 0.0) and np.all(inv[off_block] == 0.0)
        if part.sizes == (pencil.dim,):
            ew, ev = np.linalg.eigh(pencil.a0_matrix)
            assert np.array_equal(sqrt, (ev * np.sqrt(ew)) @ ev.T)
            assert np.array_equal(inv, (ev / np.sqrt(ew)) @ ev.T)
            s = inv @ pencil.d_matrix @ inv
            assert np.array_equal(pencil.whitened_damping, (s + s.T) / 2.0)
        scale = 4 * pencil.dim * np.finfo(float).eps
        norm = np.linalg.norm(pencil.a0_matrix, 2)
        assert np.linalg.norm(sqrt @ sqrt - pencil.a0_matrix, 2) <= scale * norm
        assert np.linalg.norm(inv @ sqrt - np.eye(pencil.dim), 2) <= (
            scale * np.sqrt(norm * pencil.a0_inv_norm))
        m = np.random.default_rng(0).standard_normal((pencil.dim, 7))
        for product, want in ((pencil.a0_inv_sqrt_blocks.left(m), inv @ m),
                              (pencil.a0_sqrt_blocks.right(m.T), m.T @ sqrt)):
            assert np.max(np.abs(product - want)) <= scale * np.max(np.abs(want))

    def test_compares_and_hashes_by_identity(self, diag_pencil):
        twin = QuadraticPencil(diag_pencil.a0_matrix, diag_pencil.d_matrix)
        assert diag_pencil == diag_pencil and diag_pencil != twin
        assert len({diag_pencil, twin, diag_pencil}) == 2
        assert hash(diag_pencil) == hash(diag_pencil)


class TestRayleighPair:
    def test_overdamped_direction(self, diag_pencil):
        expected = quad_roots(1.0, 6.0, 2.0)
        pair = rayleigh_pair(diag_pencil, [1.0, 0.0])
        assert pair.in_dstar
        assert pair.p_minus == pytest.approx(expected[0], abs=1e-14)
        assert pair.p_plus == pytest.approx(expected[1], abs=1e-14)
        assert pair.p_minus == pytest.approx(-3.0 - SQRT7, abs=1e-12)
        assert pair.p_plus == pytest.approx(-3.0 + SQRT7, abs=1e-12)

    def test_underdamped_direction(self):
        pencil = QuadraticPencil(np.diag([2.0, 8.0]), np.diag([2.0, 2.0]))
        pair = rayleigh_pair(pencil, [1.0, 0.0])
        assert not pair.in_dstar
        assert pair.p_minus == np.inf and pair.p_plus == -np.inf

    def test_undamped_never_real(self, undamped_pencil):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pair = rayleigh_pair(undamped_pencil, rng.standard_normal(2))
            assert not pair.in_dstar

    def test_zero_vector_rejected(self, diag_pencil):
        with pytest.raises(InvalidArgumentError):
            rayleigh_pair(diag_pencil, [0.0, 0.0])

    def test_complex_vector_rejected(self, diag_pencil):
        # Neither evaluator drops the imaginary part of a complex vector.
        with pytest.raises(InvalidArgumentError):
            rayleigh_pair(diag_pencil, [1.0, 1j])
        with pytest.raises(InvalidArgumentError):
            rayleigh_batch(diag_pencil, np.array([[1.0], [1j]]))

    def test_root_residuals(self, diag_pencil):
        for x in sample_cone_points(diag_pencil, 200, seed=11):
            pair = rayleigh_pair(diag_pencil, x)
            assert pair.p_minus <= pair.p_plus < 0.0
            for root in (pair.p_minus, pair.p_plus):
                scale = (x @ x) * max(1.0, root * root) + x @ diag_pencil.a0_matrix @ x
                assert abs(x @ diag_pencil.t_matrix(root) @ x) <= 1e-10 * scale

    def test_scale_invariance_exact_for_binary_scales(self, diag_pencil):
        x = np.array([0.3, -1.7])
        base = rayleigh_pair(diag_pencil, x)
        for c in (2.0, 0.5, -4.0, 8.0):
            scaled = rayleigh_pair(diag_pencil, c * x)
            assert scaled.p_minus == base.p_minus
            assert scaled.p_plus == base.p_plus

    def test_scale_invariance_general(self, diag_pencil):
        x = np.array([1.0, 0.2])
        base = rayleigh_pair(diag_pencil, x)
        for c in (3.0, 0.7, -1.3):
            scaled = rayleigh_pair(diag_pencil, c * x)
            assert scaled.p_minus == pytest.approx(base.p_minus, rel=1e-14)
            assert scaled.p_plus == pytest.approx(base.p_plus, rel=1e-14)

    def test_batch_matches_single(self, diag_pencil):
        rng = np.random.default_rng(5)
        cols = rng.standard_normal((2, 40))
        pm, pp, feas = rayleigh_batch(diag_pencil, cols)
        for k in range(40):
            pair = rayleigh_pair(diag_pencil, cols[:, k])
            assert feas[k] == pair.in_dstar
            if pair.in_dstar:
                assert pm[k] == pytest.approx(pair.p_minus, rel=1e-14)
                assert pp[k] == pytest.approx(pair.p_plus, rel=1e-14)


class TestDerivedScalars:
    def test_delta_gamma_diagonal(self, diag_pencil):
        assert compute_delta_gamma(diag_pencil) == pytest.approx((0.25, 3.0))

    def test_delta_gamma_zero_damping(self, undamped_pencil):
        assert compute_delta_gamma(undamped_pencil) == (0.0, 0.0)

    def test_delta_gamma_matched_damping(self):
        a0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        pencil = QuadraticPencil(a0, a0)
        delta, gamma = compute_delta_gamma(pencil)
        assert delta == pytest.approx(1.0, abs=1e-12)
        assert gamma == pytest.approx(1.0, abs=1e-12)

    def test_form_ratio_bounds_random(self):
        for seed in range(6):
            pencil = random_pencil(5, seed, damping_scale=3.0)
            delta, gamma = compute_delta_gamma(pencil)
            rng = np.random.default_rng(100 + seed)
            for _ in range(200):
                x = rng.standard_normal(5)
                ratio = (x @ pencil.d_matrix @ x) / (x @ pencil.a0_matrix @ x)
                assert delta - 1e-10 <= ratio <= gamma + 1e-10

    def test_verify_gamma_requires_samples(self, diag_pencil):
        # attainment directions of delta = 0.25 and gamma = 3 for the diagonal case
        d, a0 = diag_pencil.d_matrix, diag_pencil.a0_matrix
        e1, e2 = np.eye(2)
        assert (e1 @ d @ e1) / (e1 @ a0 @ e1) == pytest.approx(3.0)
        assert (e2 @ d @ e2) / (e2 @ a0 @ e2) == pytest.approx(0.25)

    def test_disc_radius_value(self, diag_pencil):
        _, gamma = compute_delta_gamma(diag_pencil)
        expected = 2.0 / (3.0 + np.sqrt(9.0 + 4.0 * 0.5))
        assert disc_radius(diag_pencil) == pytest.approx(expected, rel=1e-14)
        assert disc_radius(diag_pencil) < 1.0 / gamma

    def test_scalars_invariants_random(self):
        for seed in range(5):
            pencil = random_pencil(4, seed, damping_scale=5.0,
                                   ensure_real_root_cone=True)
            scalars = compute_scalars(pencil)
            assert 0.0 <= scalars.delta <= scalars.gamma
            assert scalars.alpha_lower <= scalars.alpha
            assert scalars.alpha <= -1.0 / scalars.gamma + 1e-12
            assert 0.0 < scalars.disc_radius < 1.0 / scalars.gamma


class TestLemmaAndSignLaws:
    def test_roots_below_inverse_gamma(self, diag_pencil):
        _, gamma = compute_delta_gamma(diag_pencil)
        for x in sample_cone_points(diag_pencil, 500, seed=21):
            pair = rayleigh_pair(diag_pencil, x)
            assert pair.p_plus < -1.0 / gamma
            assert pair.p_minus < -1.0 / gamma

    def test_sign_equivalence_on_interval(self, diag_pencil):
        alpha = compute_alpha(diag_pencil).alpha
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x = rng.standard_normal(2)
            lam = rng.uniform(alpha * (1.0 - 1e-9), 0.0)
            val = x @ diag_pencil.t_matrix(lam) @ x
            p_plus = rayleigh_pair(diag_pencil, x).p_plus
            scale = (x @ x) * lam * lam + x @ diag_pencil.a0_matrix @ x
            if abs(val) <= 1e-12 * scale:
                continue
            if val > 0:
                assert p_plus < lam
            else:
                assert p_plus > lam


class TestAlpha:
    def test_zero_damping_empty_cone(self, undamped_pencil):
        res = compute_alpha(undamped_pencil)
        assert res.alpha == res.upper == res.lower == -np.inf
        assert res.witness is None
        assert res.certificate is DstarVerdict.EMPTY_CERTIFIED

    def test_weak_damping_empty_cone(self):
        pencil = QuadraticPencil(np.diag([2.0, 8.0]), 0.05 * np.eye(2))
        res = compute_alpha(pencil)
        assert res.upper == -np.inf and res.witness is None

    def test_diag_fixture_value(self, diag_pencil):
        res = compute_alpha(diag_pencil)
        assert res.lower == pytest.approx(ALPHA_DIAG, abs=1e-9)
        assert res.upper == pytest.approx(ALPHA_DIAG, abs=1e-9)
        assert res.lower <= res.upper == res.alpha
        assert res.certificate is DstarVerdict.NONEMPTY_CERTIFIED
        # the dense grid oracle approaches the same value from below
        grid = p_minus_grid_2d(diag_pencil.a0_matrix, diag_pencil.d_matrix)
        assert grid <= res.upper
        # square-root cusp at the cone boundary limits the grid's accuracy
        assert res.alpha - grid < 2e-2
        pair = rayleigh_pair(diag_pencil, res.witness)
        assert pair.in_dstar and pair.p_minus == res.lower

    def test_1x1_exact(self, overdamped_1x1):
        res = compute_alpha(overdamped_1x1)
        assert res.lower == res.upper
        assert res.alpha == pytest.approx(-3.0 - SQRT7, abs=1e-12)

    def test_1x1_critical(self, critical_1x1):
        res = compute_alpha(critical_1x1)
        assert res.lower == res.upper == -1.0

    def test_determinism(self, diag_pencil):
        a = compute_alpha(diag_pencil)
        b = compute_alpha(diag_pencil)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert np.array_equal(a.witness, b.witness)


def ensemble_pencil(seed):
    """The acceptance suite's ensemble member for this seed."""
    return random_pencil(2 + seed % 5, seed, damping_scale=4.0 + (seed % 3),
                         ensure_real_root_cone=True)


def beam_pencils():
    profiles = ({"profile": "constant", "params": {"value": 4.0}},
                {"profile": "four_plus_sin", "params": {}},
                {"profile": "constant", "params": {"value": 5.0}})
    return [discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(spec), n_modes=12))
            for spec in profiles]


class TestAlphaBracket:
    # Explicit cone vectors with these p- values exist; a multistart search
    # once reported -1.17052, -1.22962 and -1.24371 for these seeds.
    @pytest.mark.parametrize("seed, witnessed", [(14, -1.1284), (18, -1.0585), (33, -1.2134)])
    def test_lower_end_reaches_known_witness(self, seed, witnessed):
        res = compute_alpha(ensemble_pencil(seed))
        assert res.lower > witnessed
        assert res.lower <= res.upper

    def test_upper_end_bounds_every_rayleigh_value(self):
        rng = np.random.default_rng(2024)
        # Seeds 20, 25 and 55 take the most rounds of seeds 0-59 (13, 13, 11).
        pencils = [ensemble_pencil(seed) for seed in [*range(50), 55]] + beam_pencils()
        for pencil in pencils:
            res = compute_alpha(pencil)
            assert res.upper - res.lower <= 1e-8 * abs(res.upper)
            assert rayleigh_pair(pencil, res.witness).p_minus == res.lower
            x = rng.standard_normal((pencil.dim, 10_000))
            x /= np.linalg.norm(x, axis=0)
            p_minus, _, feasible = rayleigh_batch(pencil, np.column_stack([x, res.witness]))
            assert feasible[-1]
            assert np.all(p_minus[feasible] <= res.upper)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160])
    def test_tiny_damping_decides_the_empty_cone_without_overflow(self, scale):
        # Outside the cone the root quotients of p-/p+, and the far crossings
        # of the polygon's edges with the parabola, overflow; neither is kept,
        # so neither may warn.
        pencil = QuadraticPencil(np.array([[2.0, 1.0], [1.0, 3.0]]), np.diag([scale, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = compute_alpha(pencil)
        assert res.certificate == DstarVerdict.EMPTY_CERTIFIED

    def test_constant_beam_maximum_on_a_two_mode_edge(self):
        # D and A0 commute; sup p- is where the segment between modes 1 and 2
        # of W crosses the parabola, far above the best single mode (-36.83).
        res = compute_alpha(beam_pencils()[0])
        assert res.lower == pytest.approx(-20.1717309614, abs=1e-8)
        assert np.count_nonzero(np.abs(res.witness) > 1e-8) == 2

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 6),
           c=st.floats(1e-3, 1e3))
    def test_bracket_scales_with_the_pencil(self, seed, dim, c):
        pencil = random_pencil(dim, seed, damping_scale=5.0, ensure_real_root_cone=True)
        scaled = QuadraticPencil(c * c * pencil.a0_matrix, c * pencil.d_matrix)
        base, res = compute_alpha(pencil), compute_alpha(scaled)
        slack = max(res.upper - res.lower, c * (base.upper - base.lower)) + 1e-12 * abs(res.upper)
        assert abs(res.lower - c * base.lower) <= slack
        assert abs(res.upper - c * base.upper) <= slack


def config_pencil(name):
    return build_pencil(load_config(CONFIGS / f"{name}.json"))


def same_directions(got, want, tol=1e-9):
    """True when the unit columns of got and want are the same directions up
    to sign and rounding: as many of each, and each column of one parallel
    to a column of the other."""
    if got.shape != want.shape:
        return False
    overlap = np.abs(got.T @ want)
    return bool(np.all(overlap.max(axis=0, initial=0.0) >= 1.0 - tol)
                and np.all(overlap.max(axis=1, initial=0.0) >= 1.0 - tol))


def assert_covers_grid_crossings(pencil, got, u, v):
    """Every cone crossing of span(u, v) on the angle grid of
    oracles.grid_cone_crossings has a unit column of got within one grid
    step of the middle of its grid interval, up to sign. Returns the number
    of grid crossings."""
    assert np.allclose(np.linalg.norm(got, axis=0), 1.0)
    want, step = grid_cone_crossings(pencil, u, v)
    overlap = np.abs(got.T @ want)
    assert np.all(overlap.max(axis=0, initial=0.0) >= np.cos(step))
    return want.shape[1]


class TestSpanCandidates:
    """_span_candidates against the sign changes of the cone's parabola on
    an angle grid of each plane."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_planes_cover_grid_crossings(self, seed):
        pencil = ensemble_pencil(seed)
        spans = np.random.default_rng(seed).standard_normal((2, pencil.dim, 2))
        got = _span_candidates(pencil, spans)
        assert got.shape[1] <= 8
        for span in spans:
            assert_covers_grid_crossings(pencil, got, *span.T)
        one_at_a_time = np.hstack([_span_candidates(pencil, span[None]) for span in spans])
        assert same_directions(got, one_at_a_time)

    @pytest.mark.parametrize("name", ["random_dim4", "beam_sin"])
    def test_planes_of_the_alpha_search_cover_grid_crossings(self, monkeypatch, name):
        pencil, crossings = config_pencil(name), []

        def checked(pencil, spans):
            got = _span_candidates(pencil, spans)
            crossings.extend(assert_covers_grid_crossings(pencil, got, *span.T) for span in spans)
            return got

        monkeypatch.setattr(pencil_mod, "_span_candidates", checked)
        compute_alpha(pencil)
        assert len(crossings) >= 2 and sum(crossings) > 0

    def test_dependent_vectors_give_none(self):
        pencil = config_pencil("random_dim4")
        u, v = np.random.default_rng(3).standard_normal((2, pencil.dim))
        parallel = np.column_stack([u, -2.5 * u])
        assert _span_candidates(pencil, parallel[None]).shape == (pencil.dim, 0)
        got = _span_candidates(pencil, np.array([parallel, np.column_stack([u, v])]))
        assert same_directions(got, _span_candidates(pencil, np.column_stack([u, v])[None]))

    # On span(e1, e2) of diagonal pencils the compressed damping is exact:
    # D = cI there (sig = 0) drops the quartic's degree, zero damping there
    # leaves a quadratic whose roots give directions but no crossing (g < 0
    # on the whole plane), and s^2 = k a with k = 4 (1 - DISC_CLAMP_TOL / 2)
    # (exact in floating point for these s, a) zeroes the whole quartic, so
    # that there are no candidates (on the grid, g is then rounding noise).
    @pytest.mark.parametrize("d, a0, crossings", [
        ([3.0, 3.0, 1.0, 2.0], [2.0, 5.0, 3.0, 4.0], 2),
        ([0.0, 0.0, 1.0, 2.0], [2.0, 5.0, 3.0, 4.0], 0),
        ([2.0615528128083147, 2.0615528128083147, 1.0, 2.0], [1.0625, 1.0625, 3.0, 4.0], None),
    ], ids=["constant_damping", "zero_damping", "zero_quartic"])
    def test_degree_drop_spans(self, d, a0, crossings):
        pencil = QuadraticPencil(np.diag(a0), np.diag(d))
        e = np.eye(4)
        q = np.linalg.qr(e[:, :2])[0]
        dc = q.T @ pencil.d_matrix @ q
        assert dc[0, 0] == dc[1, 1] and dc[0, 1] == 0.0
        got = _span_candidates(pencil, e[None, :, :2])
        if crossings is None:
            assert got.shape[1] == 0
        else:
            assert got.shape[1] > 0
            assert assert_covers_grid_crossings(pencil, got, e[:, 0], e[:, 1]) == crossings
        # a degree-4 plane in the same stack keeps its own candidates
        u, v = e[:, 2], e[:, 0] + e[:, 3]
        spans = np.array([e[:, :2], np.column_stack([u, v])])
        both = _span_candidates(pencil, spans)
        assert same_directions(both[:, :got.shape[1]], got)
        assert_covers_grid_crossings(pencil, both[:, got.shape[1]:], u, v)


class TestAlphaRounds:
    @pytest.mark.parametrize("with_spans", [True, False])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_rounds_cut_short_still_offer_every_support_vector(
            self, monkeypatch, rounds, with_spans):
        # Without the span candidates the support vectors are all that is
        # offered, so one left unoffered when the rounds run out shows.
        pencil, returned = config_pencil("random_dim4"), []
        support = pencil_mod._support

        def recording(*args):
            out = support(*args)
            returned.append(out[1])
            return out

        monkeypatch.setattr(pencil_mod, "_support", recording)
        monkeypatch.setattr(pencil_mod, "ALPHA_MAX_ROUNDS", rounds)
        if not with_spans:
            monkeypatch.setattr(pencil_mod, "_span_candidates",
                                lambda pencil, spans: np.empty((pencil.dim, 0)))
        res = compute_alpha(pencil)
        assert len(returned) == rounds + 1
        columns = np.hstack(returned)
        p_minus, _, feasible = rayleigh_batch(pencil, columns / np.linalg.norm(columns, axis=0))
        best = p_minus[feasible].max()
        # rayleigh_pair and rayleigh_batch round the forms differently
        assert res.lower >= best - 1e-12 * abs(best)
        assert rayleigh_pair(pencil, res.witness).p_minus == res.lower

    @pytest.mark.parametrize("name", ["random_dim4", "beam_sin"])
    def test_call_budget_per_round(self, monkeypatch, name):
        # Per refinement round: one qr and one numpy.roots per plane (at
        # most two) for the span candidates, one eigh for the new support
        # lines, and one rayleigh_batch; the first sweep of support lines is
        # one eigh.
        pencil, calls = config_pencil(name), collections.Counter()

        def count(module, attr, key):
            original = getattr(module, attr)

            def counting(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, attr, counting)

        for attr in ("qr", "eigvals", "eigh"):
            count(np.linalg, attr, "lapack")
        count(np, "roots", "lapack")  # one eigvals inside
        count(pencil_mod, "rayleigh_batch", "rayleigh_batch")
        count(pencil_mod, "_polygon_max", "rounds")
        compute_alpha(pencil)
        assert calls["rounds"] >= 2
        assert calls["lapack"] <= 4 * calls["rounds"] + 1
        assert calls["rayleigh_batch"] <= calls["rounds"]


class TestAlphaBrackets:
    CONFIGS = ["beam_const4", "beam_const5", "beam_sin", "dense_diag",
               "interlace_violation_a", "interlace_violation_b", "random_dim4"]

    @pytest.mark.parametrize("name", CONFIGS + ["ensemble", "beam_n50"])
    def test_brackets_end_at_compute_alpha(self, name):
        if name == "ensemble":
            pencils = [ensemble_pencil(seed) for seed in range(12)]
        elif name == "beam_n50":
            pencils = [discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(spec),
                                                  n_modes=50))
                       for spec in ({"profile": "constant", "params": {"value": 4.0}},
                                    {"profile": "four_plus_sin"})]
        else:
            pencils = [config_pencil(name)]
        for pencil in pencils:
            brackets = list(alpha_brackets(pencil))
            res = compute_alpha(pencil)
            last = brackets[-1]
            assert (last.lower, last.upper) == (res.lower, res.upper)
            assert np.array_equal(last.witness, res.witness)
            uppers = [b.upper for b in brackets]
            assert all(b <= a for a, b in zip(uppers, uppers[1:]))
            for b in brackets:
                assert b.lower <= b.upper
                if b.witness is None:
                    assert b.lower == -np.inf
                else:
                    assert rayleigh_pair(pencil, b.witness).p_minus == b.lower

    def test_random_dim4_rounds(self):
        # The secant direction at the cone crossing (9 rounds without it).
        assert len(list(alpha_brackets(config_pencil("random_dim4")))) <= 5

    @pytest.mark.parametrize("name", ["dense_diag", "interlace_violation_a"])
    def test_n2_as_one_block_closes_its_bracket(self, name):
        # The diagonal pencil taken as one block, so that it takes the
        # support polygons as a pencil with coupled blocks does: every round
        # searches a plane of two support vectors of R^2.
        pencil = config_pencil(name)
        pencil.__dict__["partition"] = blocks.partition(np.ones((2, 2)))
        res = compute_alpha(pencil)
        assert res.upper - res.lower <= pencil_mod.ALPHA_RTOL * abs(res.upper)

    @pytest.mark.parametrize("angle", [0.05, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5])
    def test_turned_graded_pair_closes_its_bracket(self, angle):
        # Modes 1 and 12 of the constant beam (d = 4), turned by a rotation:
        # alpha is the 12-mode closed form, on the chord of the two modes.
        # The rounding of a compression (|A0| = 2e6 against a0[x] of about
        # 400 at the cone crossing) exceeds the clamped band, so in some
        # bases of the plane R^2 the crossings fall outside the cone. Met
        # again in other support vectors, the plane is searched again in
        # another basis, and the bracket closes around the closed form.
        # (Not at every angle: at 1.1 rad the lower end stays 6.2e-7
        # relative short when no direction is left to split.)
        c, s = np.cos(angle), np.sin(angle)
        q = np.array([[c, -s], [s, c]])
        a0 = q @ np.diag(np.pi**4 * np.array([1.0, 144.0**2])) @ q.T
        d = q @ np.diag(4.0 * np.pi**2 * np.array([1.0, 144.0])) @ q.T
        res = compute_alpha(QuadraticPencil((a0 + a0.T) / 2.0, (d + d.T) / 2.0))
        want = beam_alpha_closed_form(12)
        assert res.upper - res.lower <= pencil_mod.ALPHA_RTOL * abs(res.upper)
        assert abs(res.lower - want) <= pencil_mod.ALPHA_RTOL * abs(want)


def constant_beam(n_modes):
    return discretize_beam(BeamConfig(
        a0=1.0, damping=make_damping_profile({"profile": "constant", "params": {"value": 4.0}}),
        n_modes=n_modes))


def block_pencil(seed, sizes):
    """A pencil of dense random blocks of the given sizes (A0 with spectrum
    in [0.5, 5], D a scaled Wishart block), its indices shuffled."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    a0, d = np.zeros((n, n)), np.zeros((n, n))
    start = 0
    for size in sizes:
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        b = rng.standard_normal((size, size))
        block = slice(start, start + size)
        a0[block, block] = q @ np.diag(rng.uniform(0.5, 5.0, size)) @ q.T
        d[block, block] = rng.uniform(1.0, 8.0) * (b @ b.T) / size + rng.uniform(0.0, 4.0) * np.eye(size)
        start += size
    order = rng.permutation(n)
    return QuadraticPencil(a0[np.ix_(order, order)], d[np.ix_(order, order)])


class TestPencilBlocks:
    """alpha on the pencil's own blocks: one exact bracket when every block
    is 1 x 1, support lines taken per block otherwise."""

    @pytest.mark.parametrize("n_modes", [12, 30, 50, 100, 200])
    def test_constant_beam_alpha_is_one_exact_bracket(self, n_modes):
        pencil = constant_beam(n_modes)
        assert set(pencil.partition.sizes) == {1}
        brackets = list(alpha_brackets(pencil))
        assert len(brackets) == 1
        res, want = brackets[0], beam_alpha_closed_form(n_modes)
        assert res.lower <= res.upper
        assert abs(res.lower - want) <= pencil_mod.ALPHA_RTOL * abs(want)
        assert abs(res.upper - want) <= pencil_mod.ALPHA_RTOL * abs(want)
        assert rayleigh_pair(pencil, res.witness).p_minus == res.lower
        assert np.count_nonzero(res.witness) == 2

    @pytest.mark.parametrize("n_modes", [12, 50, 200])
    def test_diagonal_upper_end_bounds_the_witness_neighbourhood(self, n_modes):
        # The lower end is taken half-way into the clamped band, so vectors
        # near its witness, on its segment and off it, probe the rounding
        # that the upper end's bound covers.
        pencil, rng = constant_beam(n_modes), np.random.default_rng(n_modes)
        res = compute_alpha(pencil)
        i, j = np.flatnonzero(res.witness)
        t = np.clip(res.witness[j] ** 2 + 1e-11 * rng.standard_normal(4000), 0.0, 1.0)
        on_segment = np.zeros((pencil.dim, t.size))
        on_segment[i], on_segment[j] = np.sqrt(1.0 - t), np.sqrt(t)
        near = res.witness[:, None] + 10.0 ** rng.uniform(-16, -6, 4000) * rng.standard_normal(
            (pencil.dim, 4000))
        p_minus, _, feasible = rayleigh_batch(pencil, np.hstack([on_segment, 3.7 * on_segment, near]))
        assert feasible.any()
        assert np.all(p_minus[feasible] <= res.upper)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000),
           sizes=st.lists(st.sampled_from([1, 1, 2, 3, 4]), min_size=2, max_size=6))
    def test_blocks_agree_with_the_rotated_pencil(self, seed, sizes):
        # The same pencil under a random orthogonal similarity is one block
        # and takes the one-block algorithm: the brackets overlap, and no
        # rayleigh_batch value of either pencil exceeds its upper end.
        pencil = block_pencil(seed, sizes)
        rng = np.random.default_rng(seed + 1)
        q = np.linalg.qr(rng.standard_normal((pencil.dim, pencil.dim)))[0]
        turned = QuadraticPencil(q @ pencil.a0_matrix @ q.T, q @ pencil.d_matrix @ q.T)
        assert sorted(pencil.partition.sizes) == sorted(sizes)
        assert turned.partition.sizes == (pencil.dim,)
        res, res_turned = compute_alpha(pencil), compute_alpha(turned)
        assert max(res.lower, res_turned.lower) <= min(res.upper, res_turned.upper)
        x = rng.standard_normal((pencil.dim, 2000))
        for p, r, columns in ((pencil, res, x), (turned, res_turned, q @ x)):
            if r.witness is not None:
                columns = np.column_stack([columns, r.witness[:, None] + 1e-9 * columns[:, :500]])
            p_minus, _, feasible = rayleigh_batch(p, columns)
            assert np.all(p_minus[feasible] <= r.upper)


class TestRandomPencil:
    @staticmethod
    def rescaled(seed):
        return not np.array_equal(
            random_pencil(2 + seed % 5, seed, damping_scale=4.0 + seed % 3).d_matrix,
            ensemble_pencil(seed).d_matrix)

    def test_rescaled_damping_builds_one_pencil(self, monkeypatch):
        seed = next(seed for seed in range(60) if self.rescaled(seed))
        built = []
        post_init = QuadraticPencil.__post_init__
        monkeypatch.setattr(QuadraticPencil, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        ensemble_pencil(seed)
        assert len(built) == 1

    def test_ensemble_matrices_as_built_twice(self):
        # Bitwise the matrices of the two-construction build, on the seeded
        # ensemble of the acceptance suite, rescaled or not.
        assert any(self.rescaled(seed) for seed in range(60))
        for seed in range(60):
            got = ensemble_pencil(seed)
            want = random_pencil_built_twice(2 + seed % 5, seed, 4.0 + seed % 3)
            assert np.array_equal(got.a0_matrix, want.a0_matrix)
            assert np.array_equal(got.d_matrix, want.d_matrix)


class TestDstarCertificate:
    def test_zero_damping(self, undamped_pencil):
        assert dstar_empty_certificate(undamped_pencil).verdict is DstarVerdict.EMPTY_CERTIFIED

    def test_diag_fixture_nonempty(self, diag_pencil):
        cert = dstar_empty_certificate(diag_pencil)
        assert cert.verdict is DstarVerdict.NONEMPTY_CERTIFIED
        assert rayleigh_pair(diag_pencil, cert.witness).in_dstar

    def test_boundary_witnessed(self, critical_1x1):
        # the cone is everything: d[x] = 2 |x| sqrt(a0[x]) exactly
        cert = dstar_empty_certificate(critical_1x1)
        assert cert.verdict is DstarVerdict.NONEMPTY_CERTIFIED
        assert np.array_equal(cert.witness, [1.0])
        assert rayleigh_pair(critical_1x1, cert.witness).in_dstar

    def test_weak_damping_empty(self):
        pencil = QuadraticPencil(np.diag([2.0, 8.0]), 0.05 * np.eye(2))
        assert dstar_empty_certificate(pencil).verdict is DstarVerdict.EMPTY_CERTIFIED
