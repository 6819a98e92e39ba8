import copy
import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import quadpencil.linearization as linearization_mod
from quadpencil import (
    BeamConfig,
    IntervalDelta,
    InvalidArgumentError,
    QuadraticPencil,
    blocks,
    build_linearization,
    check_pencil_equivalence,
    compute_alpha,
    compute_delta_gamma,
    compute_scalars,
    disc_radius,
    discretize_beam,
    full_spectrum,
    inertia_negative,
    locate_real_eigenvalues,
    make_damping_profile,
    resolvent_region_check,
    structural_report,
)
from quadpencil.config import build_pencil, load_config, random_pencil
from quadpencil.linearization import companion_eig
from quadpencil.pencil import EIGEN_TOL

from oracles import (
    closed_form_inverse,
    components_bfs,
    conjugate_pairing,
    det_poly_eigenvalues,
    exact_inertia,
    resolvent_regions_loop,
    semisimplicity_check,
    single_linkage_groups,
)

SQRT7 = np.sqrt(7.0)
EPS = np.finfo(float).eps
# The largest block whose exact rational inertia a test computes: its cost
# grows with the block's size cubed times the digits of its minors.
EXACT_BLOCK = 15
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def match_multisets(left, right, tol):
    left = list(left)
    right = list(right)
    assert len(left) == len(right)
    for a in left:
        j = int(np.argmin([abs(a - b) for b in right]))
        assert abs(a - right[j]) <= tol, (a, right[j])
        right.pop(j)


# A0 = [[1, 1], [1, 3]], D = [[2, 1], [1, 2]]: a defective double
# eigenvalue -1 that the eigensolver splits into -1 +- 2e-8 i.
SPLIT_JORDAN = ([[1.0, 1.0], [1.0, 3.0]], [[2.0, 1.0], [1.0, 2.0]])


def beam_cfg(n_modes):
    return BeamConfig(
        a0=1.0,
        damping=make_damping_profile({"profile": "four_plus_sin", "params": {}}),
        n_modes=n_modes,
    )


def overdamped_pencil(seed, dim=6):
    """Seeded pencil with lambda_min(D) > 2 sqrt(lambda_max(A0)), so all 2n
    eigenvalues are real."""
    base = random_pencil(dim, 500 + seed)
    a0_top = np.linalg.eigvalsh(base.a0_matrix)[-1]
    d = base.d_matrix + 2.5 * np.sqrt(a0_top) * np.eye(dim)
    return QuadraticPencil(base.a0_matrix, d)


class TestBuild:
    def test_undamped_spectrum(self, undamped_pencil):
        spec = full_spectrum(build_linearization(undamped_pencil))
        expected = [1j * np.sqrt(2), -1j * np.sqrt(2), 1j * np.sqrt(8), -1j * np.sqrt(8)]
        match_multisets(spec.raw_eigenvalues, expected, 1e-12)

    def test_1x1_overdamped(self, overdamped_1x1):
        spec = full_spectrum(build_linearization(overdamped_1x1))
        match_multisets(spec.raw_eigenvalues, [-3.0 + SQRT7, -3.0 - SQRT7], 1e-12)

    def test_inverse_identity_whitened_and_raw(self, diag_pencil):
        system = build_linearization(diag_pencil)
        n = diag_pencil.dim
        inverse = closed_form_inverse(diag_pencil)
        assert np.linalg.norm(system.a_matrix @ inverse - np.eye(2 * n), 2) <= 1e-10
        # the closed form is the whitened image of the raw block closed form
        a0_inv = np.linalg.inv(diag_pencil.a0_matrix)
        raw = np.block([
            [-a0_inv @ diag_pencil.d_matrix, -a0_inv],
            [np.eye(n), np.zeros((n, n))],
        ])
        w = np.block([
            [diag_pencil.a0_sqrt, np.zeros((n, n))],
            [np.zeros((n, n)), np.eye(n)],
        ])
        w_inv = np.block([
            [diag_pencil.a0_inv_sqrt, np.zeros((n, n))],
            [np.zeros((n, n)), np.eye(n)],
        ])
        assert np.linalg.norm(inverse - w @ raw @ w_inv, 2) <= 1e-10

    def test_j_symmetry_and_inverse_random(self):
        for seed, dim in enumerate((3, 4, 5, 6, 8, 10, 12, 12)):
            pencil = random_pencil(dim, seed, damping_scale=2.0)
            system = build_linearization(pencil)
            j_signature = np.diag(np.concatenate([np.ones(dim), -np.ones(dim)]))
            ja = j_signature @ system.a_matrix
            assert np.linalg.norm(ja - ja.T, 2) <= 1e-12 * system.norm
            assert np.linalg.norm(
                system.a_matrix @ closed_form_inverse(pencil) - np.eye(2 * dim), 2
            ) <= 1e-10

    def test_norm_matches_svd(self, rotated_pencil):
        # |A|_2 from the symmetric part of J A lies within |S - S^T|_2 / 2 of
        # the SVD's |A|_2, plus 4n eps |A| for the rounding of both solvers;
        # also where the block S = A0^{1/2} is made unsymmetric on purpose.
        pencils = [build_pencil(load_config(path)) for path in sorted(CONFIGS.glob("*.json"))]
        pencils += [random_pencil(dim, seed, damping_scale=scale)
                    for seed, (dim, scale) in enumerate([(2, 0.5), (3, 1.0), (5, 3.0),
                                                         (8, 10.0), (12, 2.0), (20, 4.0)])]
        pencils.append(rotated_pencil)
        assert len(pencils) == 14
        for pencil in pencils:
            system = build_linearization(pencil)
            n = pencil.dim
            # The same unsymmetric error in both A0^{1/2} blocks, along the
            # top singular vectors of A, so that |A|_2 moves to first order.
            # They lie in one block of the companion; off it their entries
            # are rounding, which is cut so that no defect is dropped.
            u, _, vt = np.linalg.svd(system.a_matrix)
            labels = partition_labels(system.partition)
            block = labels[:n] == labels[np.argmax(np.abs(u[:, 0]))]
            e = 1e-3 * system.norm * np.outer(u[:n, 0] * block, vt[0, n:] * block)
            skewed = system.a_matrix + np.block([[np.zeros((n, n)), e],
                                                 [-e, np.zeros((n, n))]])
            for a in (system.a_matrix, skewed):
                assert_defect_inside_one_block(system, a)
                s = a[:n, n:]
                want = np.linalg.norm(a, 2)
                bound = np.linalg.norm(s - s.T, 2) / 2.0 + 4 * n * EPS * want
                got = dataclasses.replace(system, a_matrix=a).norm
                assert abs(got - want) <= bound


def test_each_matrix_is_eigensolved_once(monkeypatch):
    # The spectrum command's call sequence plus compute_scalars solves A0, D
    # and the whitened damping A0^{-1/2} D A0^{-1/2} once each; a diagonal
    # A0 (every beam's) is read directly and never eigensolved. Inputs are
    # recorded at the entries of the block solver (D and the whitened
    # damping) and of numpy's (a dense A0; the block solver hands numpy
    # stacks of blocks, never a whole matrix).
    solved = []
    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                         (blocks, "eigh"), (blocks, "eigvalsh")):
        original = getattr(module, name)

        def counting(a, *args, _original=original, **kwargs):
            solved.append(np.array(a, copy=True))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    for config, a0_solves in (("beam_sin", 0), ("random_dim4", 1)):
        solved.clear()
        pencil = build_pencil(load_config(CONFIGS / f"{config}.json"))
        system = build_linearization(pencil)
        spectrum = full_spectrum(system)
        structural_report(system, spectrum)
        check_pencil_equivalence(pencil, spectrum)
        assert compute_delta_gamma(pencil)[1] > 0.0
        resolvent_region_check(pencil, spectrum)
        compute_scalars(pencil)
        assert sum(np.array_equal(m, pencil.a0_matrix) for m in solved) == a0_solves
        for matrix in (pencil.d_matrix, pencil.whitened_damping):
            assert sum(np.array_equal(m, matrix) for m in solved) == 1


def assert_defect_inside_one_block(system, a):
    """The entries where a differs from system.a_matrix lie in one block of
    system.partition, where the block solvers (norm, full_spectrum) see all
    of them: a defect across blocks would be dropped as coupling."""
    rows, cols = np.nonzero(a != system.a_matrix)
    labels = partition_labels(system.partition)
    assert np.unique(labels[np.concatenate([rows, cols])]).size <= 1


class TestStructuralChecks:
    """structural_report alone measures the two identities, on whatever
    a_matrix the system holds; build_linearization decides nothing."""

    @staticmethod
    def _checks(system, spectrum):
        return {c.label: c for c in structural_report(system, spectrum).checks}

    def test_perturbed_sqrt_block_fails_j_symmetry(self, rotated_pencil):
        # rotated_pencil is one block: diag_pencil's A0^{1/2} block has no
        # off-diagonal entry inside a block of its partition.
        system = build_linearization(rotated_pencil)
        spec = full_spectrum(system)
        assert structural_report(system, spec).ok
        a = system.a_matrix.copy()
        a[0, 3] += 1e-6             # an off-diagonal entry of the A0^{1/2} block
        assert_defect_inside_one_block(system, a)
        checks = self._checks(dataclasses.replace(system, a_matrix=a), spec)
        assert not checks["j_symmetry"].ok
        assert checks["j_symmetry"].data["defect"] == pytest.approx(1e-6, rel=1e-6)
        assert checks["j_symmetry"].data["norm"] == "sqrt(|R|_1 |R|_inf)"

    @pytest.mark.parametrize("entry", [(0, 1), (3, 0), (2, 3)])
    def test_perturbed_other_blocks_fail_j_symmetry(self, rotated_pencil, entry):
        # J A - (J A)^T is measured over all four blocks: 1e-3 added to an
        # entry of the zero block, the -A0^{1/2} block or the -D block is a
        # defect of 1e-3 (the entry and its mirror, one per row and column).
        system = build_linearization(rotated_pencil)
        spec = full_spectrum(system)
        a = system.a_matrix.copy()
        a[entry] += 1e-3
        assert_defect_inside_one_block(system, a)
        check = self._checks(dataclasses.replace(system, a_matrix=a), spec)["j_symmetry"]
        assert not check.ok
        assert check.data["defect"] == pytest.approx(1e-3, rel=1e-9)

    def test_j_symmetry_defect_of_a_valid_companion_is_that_of_its_sqrt_block(self):
        # [[0, K], [K, 0]], K = s - s^T, has the measure of K itself.
        pencils = [build_pencil(load_config(path)) for path in sorted(CONFIGS.glob("*.json"))]
        pencils += [random_pencil(dim, seed, damping_scale=2.0)
                    for seed, dim in enumerate((3, 5, 8, 12))]
        for pencil in pencils:
            system = build_linearization(pencil)
            s = system.a_matrix[:pencil.dim, pencil.dim:]
            k = np.abs(s - s.T)
            check = self._checks(system, full_spectrum(system))["j_symmetry"]
            assert check.ok
            assert check.data["defect"] == np.sqrt(k.sum(axis=0).max() * k.sum(axis=1).max())

    def test_perturbed_damping_block_fails_inverse_only(self, diag_pencil):
        system = build_linearization(diag_pencil)
        spec = full_spectrum(system)
        a = system.a_matrix.copy()
        a[2, 2] += 1e-6             # a diagonal entry of the -D block
        assert_defect_inside_one_block(system, a)
        checks = self._checks(dataclasses.replace(system, a_matrix=a), spec)
        assert checks["j_symmetry"].ok
        assert not checks["inverse_identity"].ok
        # (A + E) A^{-1} - I = E A^{-1}, whose only row is 1e-6 A0^{-1/2}[0]
        assert checks["inverse_identity"].data["defect"] == pytest.approx(
            1e-6 / np.sqrt(2.0), rel=1e-6)

    def test_perturbed_zero_block_fails_inverse(self, diag_pencil):
        # The residual reads the stored zero block too: (A + E) A^{-1} - I
        # = E A^{-1}, whose only row is 1e-6 times row 0 of the closed form.
        system = build_linearization(diag_pencil)
        spec = full_spectrum(system)
        assert self._checks(system, spec)["inverse_identity"].ok
        a = system.a_matrix.copy()
        a[0, 0] = 1e-6              # an entry of the zero block
        assert_defect_inside_one_block(system, a)
        check = self._checks(dataclasses.replace(system, a_matrix=a), spec)["inverse_identity"]
        assert not check.ok
        row = np.abs(1e-6 * closed_form_inverse(diag_pencil)[0])
        assert check.data["defect"] == pytest.approx(np.sqrt(row.max() * row.sum()), rel=1e-6)

    def test_rotated_ill_conditioned_pencil_reports_inverse(self, rotated_pencil):
        # cond(A0) = 1e6 rounds A0^{1/2} A0^{-1/2} to about 2e-10; the bound
        # 2 * 2n eps |A| (gamma + |A0^{-1}|^{1/2}) grows with that rounding.
        # The defect is sqrt(|R|_1 |R|_inf) of R = A A^{-1} - I, which lies
        # between |R|_2 and sqrt(2n) |R|_2; R is taken by A's block columns
        # [A_1, A_2] against the blocks of the closed form.
        system = build_linearization(rotated_pencil)
        check = self._checks(system, full_spectrum(system))["inverse_identity"]
        inverse = closed_form_inverse(rotated_pencil)
        a_1, a_2 = system.a_matrix[:, :2], system.a_matrix[:, 2:]
        r = np.hstack([a_2 @ inverse[2:, :2] + a_1 @ inverse[:2, :2],
                       a_1 @ inverse[:2, 2:]]) - np.eye(4)
        two_norm = np.linalg.norm(r, 2)
        assert check.data["norm"] == "sqrt(|R|_1 |R|_inf)"
        assert check.data["defect"] == np.sqrt(np.linalg.norm(r, 1) * np.linalg.norm(r, np.inf))
        assert two_norm <= check.data["defect"] <= np.sqrt(4) * two_norm
        assert check.ok
        # the block bound on |A^{-1}| is no smaller than its exact 2-norm
        exact = 2.0 * 4 * np.finfo(float).eps * system.norm * np.linalg.norm(inverse, 2)
        assert exact <= check.data["bound"] <= 1.5 * exact

    @pytest.mark.parametrize("name", ["beam_const4", "beam_const5", "beam_sin",
                                      "dense_diag", "interlace_violation_a",
                                      "interlace_violation_b", "random_dim4"])
    def test_inverse_perturbed_relatively_fails(self, name):
        # The shipped configs pass; an inverse off by 1e-8 relative fails:
        # both factors of the closed form scaled by 1 + 1e-8 give R = 1e-8 I.
        pencil = build_pencil(load_config(CONFIGS / f"{name}.json"))
        system = build_linearization(pencil)
        spec = full_spectrum(system)
        assert self._checks(system, spec)["inverse_identity"].ok
        scaled = copy.copy(pencil)  # with the caches the bound is taken from
        for factor in ("a0_inv_sqrt", "whitened_damping"):
            vars(scaled)[factor] = getattr(pencil, factor) * (1.0 + 1e-8)
        check = self._checks(dataclasses.replace(system, pencil=scaled), spec)["inverse_identity"]
        assert not check.ok
        assert check.data["defect"] == pytest.approx(1e-8, rel=1e-3)


def assert_blocks_match_whole_companion(pencil):
    """companion_eig's eigenvalues against scipy.linalg.eig of the whole
    companion. Bound fixed from first-order perturbation theory: the two
    solves are exact for A - E + F1 and A + F2, with |E| <= 4n eps |A| the
    dropped coupling and |F1|, |F2| <= N eps |A| the backward errors of
    dgeev (N = 2n), so |dlam| <= cond(lam) 4 N eps |A|; twice that covers
    higher-order terms. cond(lam) = 1 / |y^H x| from the whole solve's unit
    left and right eigenvectors; the best-conditioned are matched first."""
    system = build_linearization(pencil)
    a = system.a_matrix
    w, vl, vr = scipy.linalg.eig(a, left=True)
    cond = 1.0 / np.abs(np.sum(vl.conj() * vr, axis=0))
    bound = 8.0 * a.shape[0] * EPS * system.norm * cond
    got = list(companion_eig(a).values)
    assert len(got) == a.shape[0]
    for k in np.argsort(cond):
        j = int(np.argmin(np.abs(np.array(got) - w[k])))
        assert abs(got[j] - w[k]) <= bound[k], (w[k], got[j], bound[k])
        got.pop(j)


@functools.cache
def _separators(a0_bytes, d_bytes, dim):
    pencil = QuadraticPencil(np.frombuffer(a0_bytes).reshape(dim, dim),
                             np.frombuffer(d_bytes).reshape(dim, dim))
    alpha = compute_alpha(pencil).upper
    if alpha == -np.inf:  # an empty cone: no real eigenvalue
        return (0.0,)
    result = locate_real_eigenvalues(pencil, IntervalDelta.inside(alpha), EIGEN_TOL)
    return tuple(sorted({0.0, result.interval.lower}
                        | {end for d in result.per_eigenvalue for end in d.bracket}))


def locate_separators(pencil):
    """The points where locate_real_eigenvalues counts the inertia of T(lam)
    on (alpha, 0]: 0, its brackets' ends and the interval's lower end."""
    return _separators(pencil.a0_matrix.tobytes(), pencil.d_matrix.tobytes(), pencil.dim)


def symmetric_inputs(pencil):
    """The symmetric matrices the block solver decomposes for pencil: D,
    the whitened damping and T(lam) at locate's separators."""
    return ([("D", pencil.d_matrix), ("whitened", pencil.whitened_damping)]
            + [(f"T({lam})", pencil.t_matrix(lam)) for lam in locate_separators(pencil)])


def partition_labels(part):
    """One label per index: the number of its block in part."""
    labels = np.empty(sum(part.sizes), dtype=int)
    for block, rows in enumerate(rows for _, group in part.groups for rows in group):
        labels[rows] = block
    return labels


def assert_symmetric_blocks_match_whole(pencil):
    """blocks.eigvalsh and blocks.eigh on the pencil's partition against
    np.linalg.eigvalsh of the whole matrix M (N x N). Bound fixed from
    Weyl's theorem: the two solves are exact for M - E + F1 and M + F2,
    with E the dropped coupling and |F1|, |F2| <= N eps |M| the backward
    errors of dsyevd, so the sorted eigenvalues differ by at most
    4N eps |M| where |E| <= 2N eps |M|. That holds for D; for T(lam) the
    pencil's partition bounds |E| by 2N eps term_scale(lam) only, and the
    tighter bound is kept here. eigh's vectors are orthonormal eigenvectors
    of the blocks, zero off their block. At locate's separators, which lie
    off the spectrum, the inertia counts of inertia_negative equal the exact
    rational ones where no block is larger than EXACT_BLOCK (exact_inertia),
    and the signs of the whole solve, with no boundary slot, elsewhere."""
    part = pencil.partition
    labels = partition_labels(part)
    for name, m in symmetric_inputs(pencil):
        whole = np.linalg.eigvalsh(m)
        size = m.shape[0]
        bound = 4.0 * size * EPS * np.max(np.abs(whole))
        got = blocks.eigvalsh(m, part)
        assert np.all(np.abs(got - whole) <= bound), (name, np.max(np.abs(got - whole)), bound)
        w, v = blocks.eigh(m, part)
        assert np.array_equal(w, np.sort(w))
        assert np.all(np.abs(w - whole) <= bound), name
        assert np.linalg.norm(v.T @ v - np.eye(size), 2) <= 4.0 * size * EPS
        assert np.linalg.norm(m @ v - v * w, 2) <= bound + 4.0 * size * EPS * np.max(np.abs(w))
        off_block = labels[:, None] != labels[np.argmax(np.abs(v), axis=0)][None, :]
        assert np.all(v[off_block] == 0.0), name
    for lam in locate_separators(pencil):
        count = inertia_negative(pencil, lam)
        if max(part.sizes) <= EXACT_BLOCK:
            assert count == exact_inertia(pencil, lam), lam
        else:
            whole = np.linalg.eigvalsh(pencil.t_matrix(lam))
            assert count == (np.sum(whole < 0.0), 0, np.sum(whole > 0.0)), lam


def profile_beam(profile, n_modes):
    specs = {
        "constant": {"profile": "constant", "params": {"value": 4.0}},
        "four_plus_sin": {"profile": "four_plus_sin", "params": {}},
        "affine": {"profile": "affine", "params": {"intercept": 2.0, "slope": 1.5}},
    }
    return discretize_beam(BeamConfig(a0=1.0, damping=make_damping_profile(specs[profile]),
                                      n_modes=n_modes))


def block_cases():
    """The block-solve inputs, one pytest.param each: the shipped configs,
    beams whose damping decouples modes exactly (constant: pairs;
    four_plus_sin: odd and even) or not at all (affine), and dense pencils."""
    cases = [pytest.param(build_pencil(load_config(path)), id=path.stem)
             for path in sorted(CONFIGS.glob("*.json"))]
    cases += [pytest.param(profile_beam(profile, n), id=f"{profile}-{n}")
              for profile in ("constant", "four_plus_sin", "affine") for n in (12, 50, 150)]
    cases += [pytest.param(random_pencil(3 + seed % 6, 200 + seed, damping_scale=2.0),
                           id=f"random-{seed}") for seed in range(8)]
    return cases


class TestCompanionBlocks:
    """The block solves, companion_eig and the symmetric blocks.eigh and
    blocks.eigvalsh, against the whole solves on the same inputs."""

    @pytest.mark.parametrize("pencil", block_cases())
    def test_eigenvalues_match_whole_companion(self, pencil):
        assert_blocks_match_whole_companion(pencil)
        assert_symmetric_blocks_match_whole(pencil)

    @pytest.mark.parametrize("pencil", block_cases())
    def test_companion_partition_is_derived_from_the_pencils(self, pencil):
        # Block r of the pencil with r + n is the companion's own partition.
        system = build_linearization(pencil)
        derived, own = system.partition, blocks.partition(system.a_matrix)
        assert derived.sizes == own.sizes
        assert len(derived.groups) == len(own.groups)
        for (slots, rows), (own_slots, own_rows) in zip(derived.groups, own.groups):
            assert np.array_equal(slots, own_slots) and np.array_equal(rows, own_rows)

    def test_rotated_pencil_matches_whole_companion(self, rotated_pencil):
        assert_blocks_match_whole_companion(rotated_pencil)
        assert_symmetric_blocks_match_whole(rotated_pencil)

    @pytest.mark.parametrize("profile, sizes", [
        ("constant", lambda n: (2,) * n),
        ("four_plus_sin", lambda n: (n, n)),
        ("affine", lambda n: (2 * n,)),
    ])
    @pytest.mark.parametrize("n_modes", [12, 50, 150])
    def test_beam_block_sizes(self, profile, sizes, n_modes):
        system = build_linearization(profile_beam(profile, n_modes))
        assert full_spectrum(system).block_sizes == sizes(n_modes)

    def test_config_block_sizes(self):
        sizes = {path.stem: full_spectrum(build_linearization(
            build_pencil(load_config(path)))).block_sizes for path in CONFIGS.glob("*.json")}
        assert sizes == {
            "beam_const4": (2,) * 12, "beam_const5": (2,) * 12, "beam_sin": (12, 12),
            "dense_diag": (2, 2), "interlace_violation_a": (2, 2),
            "interlace_violation_b": (2, 2), "random_dim4": (8,),
        }

    def test_components_match_bfs_oracle(self):
        rng = np.random.default_rng(17)
        patterns = []
        for size in (1, 2, 5, 17, 40, 120):
            for density in (0.0, 0.01, 0.05, 0.2, 0.6):
                upper = np.triu(rng.random((size, size)) < density, 1)
                patterns.append(upper | upper.T)
        # Paths in index order, reversed and shuffled, and two interleaved
        # paths: the longest chains min-label propagation has to cross.
        for size in (2, 3, 64, 301):
            for perm in (np.arange(size), np.arange(size)[::-1], rng.permutation(size)):
                path = np.zeros((size, size), dtype=bool)
                path[perm[:-1], perm[1:]] = True
                patterns.append(path | path.T)
        two = np.zeros((100, 100), dtype=bool)
        two[np.arange(0, 98), np.arange(2, 100)] = True
        patterns.append(two | two.T)
        for adjacency in patterns:
            labels = blocks._components(adjacency)
            assert np.array_equal(labels, components_bfs(adjacency))

    @pytest.mark.parametrize("pencil", block_cases())
    def test_blocks_invariant_under_rescaling(self, pencil):
        # lam -> c lam: A0 -> c^2 A0, D -> c D scales the companion by c,
        # D by c, T(c lam) by c^2 and leaves the whitened damping alone.
        def labels(m):
            return blocks._components(blocks._deflation_graph(m))

        def matrices(p, c):
            return ([build_linearization(p).a_matrix, p.d_matrix, p.whitened_damping]
                    + [p.t_matrix(c * lam) for lam in locate_separators(pencil)])

        want = [labels(m) for m in matrices(pencil, 1.0)]
        for c in 10.0 ** np.arange(-6, 7):
            scaled = QuadraticPencil(c**2 * pencil.a0_matrix, c * pencil.d_matrix)
            for k, m in enumerate(matrices(scaled, c)):
                assert np.array_equal(labels(m), want[k]), (c, k)

    def test_coupling_at_threshold(self):
        # D couples the two modes by delta; the damping block's diagonal is
        # 6 and 2, so the deflation threshold is eps (6 + 2) = 8 eps.
        threshold = EPS * 8.0
        for delta, sizes in ((np.nextafter(threshold, 0.0), (2, 2)), (threshold, (2, 2)),
                             (np.nextafter(threshold, 1.0), (4,))):
            pencil = QuadraticPencil(np.diag([2.0, 8.0]), [[6.0, delta], [delta, 2.0]])
            eig = companion_eig(build_linearization(pencil).a_matrix)
            assert eig.block_sizes == sizes, delta
            assert eig.vectors.shape == (4, 4)
            assert eig.residuals(eig.values).shape == (4,)
            # The symmetric driver on D itself: the same threshold 8 eps.
            assert blocks.partition(pencil.d_matrix).sizes == ((1, 1) if sizes == (2, 2)
                                                               else (2,)), delta
            _, v = blocks.eigh(pencil.d_matrix, pencil.partition)
            assert np.count_nonzero(v) == (2 if sizes == (2, 2) else 4), delta
            assert build_linearization(pencil).partition.sizes == sizes, delta


class TestFullSpectrum:
    def test_diag_fixture_values(self, diag_pencil):
        spec = full_spectrum(build_linearization(diag_pencil))
        expected = [
            -3.0 + SQRT7, -3.0 - SQRT7,
            complex(-1.0, SQRT7), complex(-1.0, -SQRT7),
        ]
        match_multisets(spec.raw_eigenvalues, expected, 1e-12)
        assert all(m == 1 for m in spec.algebraic_multiplicities)
        assert all(m == 1 for m in spec.geometric_multiplicities)
        assert np.max(spec.residuals) < 1e-12

    def test_residuals_match_per_vector_loop(self, critical_1x1):
        # Reference: |A v - lam v| / |v| one eigenvector at a time, with the
        # whole A, at its cluster's mean, the largest over the cluster; the
        # two differ by the rounding of the products and the coupling that
        # the block solve drops (at most 4n eps |A|).
        # The coupled Jordan pencil is a cluster of two split members.
        for pencil in (discretize_beam(beam_cfg(20)), critical_1x1,
                       QuadraticPencil([[1.0, 6.0], [6.0, 38.0]], [[2.0, 6.0], [6.0, 108.0]])):
            system = build_linearization(pencil)
            spec = full_spectrum(system)
            a = system.a_matrix
            eig = companion_eig(a)
            w, v = eig.values, eig.vectors
            want = {}
            labels = blocks._cluster_labels(w, spec.cluster_tolerance)
            for grp in (np.flatnonzero(labels == c) for c in range(labels.max() + 1)):
                lam = complex(np.mean(w[grp]))
                want[lam] = max(np.linalg.norm(a @ v[:, i] - lam * v[:, i])
                                / np.linalg.norm(v[:, i]) for i in grp)
            rounding = 8 * a.shape[0] * np.finfo(float).eps * system.norm
            assert len(want) == len(spec.eigenvalues)
            for lam, got in zip(spec.eigenvalues, spec.residuals):
                assert abs(got - want[complex(lam)]) <= rounding

    def test_critical_1x1_jordan(self, critical_1x1):
        spec = full_spectrum(build_linearization(critical_1x1))
        assert len(spec.eigenvalues) == 1
        assert spec.eigenvalues[0] == pytest.approx(-1.0, abs=1e-7)
        assert spec.algebraic_multiplicities[0] == 2
        assert spec.geometric_multiplicities[0] == 1

    def test_semisimple_double_keeps_kernel_count(self):
        # two identical overdamped modes: each of -3 +- sqrt7 is a double,
        # semisimple eigenvalue, so the kernel count must report geo = 2
        pencil = QuadraticPencil(np.diag([2.0, 2.0]), np.diag([6.0, 6.0]))
        spec = full_spectrum(build_linearization(pencil))
        match_multisets(spec.eigenvalues, [-3.0 + SQRT7, -3.0 - SQRT7], 1e-7)
        assert list(spec.algebraic_multiplicities) == [2, 2]
        assert list(spec.geometric_multiplicities) == [2, 2]

    def test_kernel_count_only_for_clusters(self, monkeypatch, critical_1x1):
        calls = []

        def counting_nullity(m, *args, **kwargs):
            calls.append(m.shape)
            return original(m, *args, **kwargs)

        original = linearization_mod._nullity
        monkeypatch.setattr(linearization_mod, "_nullity", counting_nullity)
        spec = full_spectrum(build_linearization(discretize_beam(beam_cfg(20))))
        assert len(spec.eigenvalues) == 40 and calls == []
        spec = full_spectrum(build_linearization(critical_1x1))
        assert calls == [(2, 2)] and spec.geometric_multiplicities[0] == 1

    def test_cluster_matches_connected_components(self):
        # Oracle: components of the dense graph |w_i - w_j| <= tol, including
        # points that share a real part (proportional damping puts every
        # complex eigenvalue on one line) and conjugate pairs inside and
        # outside tol of each other.
        rng = np.random.default_rng(5)
        clouds = [(rng.standard_normal(60) + 1j * rng.standard_normal(60), None)
                  for _ in range(20)]
        clouds += [(-1.0 + 1j * rng.standard_normal(60), None) for _ in range(5)]
        for _ in range(5):
            z = rng.standard_normal(30) + 1j * rng.uniform(0.0, 0.3, 30)
            clouds.append((rng.permutation(np.concatenate([z, z.conj()])), None))
        # Real points, unsorted and sorted descending as the locator groups
        # them, with exact ties and chains of steps just inside tol.
        clouds += [(rng.standard_normal(60), None) for _ in range(5)]
        clouds += [(-np.sort(-rng.uniform(-3.0, 0.0, 60).round(1)), None) for _ in range(5)]
        clouds += [(np.cumsum(rng.choice([0.09, 0.11], 60)), None) for _ in range(5)]
        # Companion spectra with split multiple eigenvalues (the split
        # Jordan pair -1 +- 2e-8 i, a 1x1 critical root, a coupled Jordan
        # block, a semisimple double) at tolerances around the split.
        for a0, d in (SPLIT_JORDAN, ([[1.0]], [[2.0]]),
                      ([[1.0, 6.0], [6.0, 38.0]], [[2.0, 6.0], [6.0, 108.0]]),
                      (np.diag([2.0, 2.0]), np.diag([6.0, 6.0]))):
            system = build_linearization(QuadraticPencil(a0, d))
            w = scipy.linalg.eigvals(system.a_matrix)
            clouds += [(w, rel * system.norm) for rel in (1e-10, 1e-8, 1e-7, 1e-5)]
        for w, tol in clouds:
            tol = rng.uniform(0.05, 0.5) if tol is None else tol
            labels = blocks._cluster_labels(w, tol)
            found = [tuple(np.flatnonzero(labels == c)) for c in range(labels.max() + 1)]
            assert found == single_linkage_groups(w, tol)
        assert blocks._cluster_labels(np.empty(0), 1.0).size == 0

    @pytest.mark.parametrize("case", ["beam", "random", "critical", "jordan", "split_jordan",
                                      "semisimple"])
    def test_label_reductions_match_group_loop(self, case, critical_1x1):
        # Reference: one cluster at a time from the all-pairs groups; the
        # mean of its members (a singleton's eigenvalue exactly), its size
        # and the damping block of its first member, sorted like
        # full_spectrum sorts.
        pencil = {
            "beam": lambda: discretize_beam(beam_cfg(20)),
            "random": lambda: random_pencil(12, 3, damping_scale=1.0),
            "critical": lambda: critical_1x1,
            "jordan": lambda: QuadraticPencil([[1.0, 6.0], [6.0, 38.0]],
                                              [[2.0, 6.0], [6.0, 108.0]]),
            "split_jordan": lambda: QuadraticPencil(*SPLIT_JORDAN),
            "semisimple": lambda: QuadraticPencil(np.diag([2.0, 2.0]), np.diag([6.0, 6.0])),
        }[case]()
        system = build_linearization(pencil)
        spec = full_spectrum(system)
        eig = companion_eig(system.a_matrix)
        w, v = eig.values, eig.vectors
        groups = single_linkage_groups(w, spec.cluster_tolerance)
        reps = np.array([w[g[0]] if len(g) == 1 else np.mean(w[list(g)]) for g in groups])
        order = np.lexsort((np.abs(reps.imag), -reps.real))
        assert np.array_equal(spec.raw_eigenvalues, w)
        assert np.array_equal(spec.eigenvalues, reps[order])
        assert list(spec.algebraic_multiplicities) == [len(groups[k]) for k in order]
        assert np.array_equal(spec.vectors, v[pencil.dim:, [groups[k][0] for k in order]])

    def test_structural_report_random(self):
        for seed in range(10):
            pencil = random_pencil(4 + seed % 4, 50 + seed, damping_scale=3.0)
            system = build_linearization(pencil)
            spec = full_spectrum(system)
            report = structural_report(system, spec)
            assert report.ok, report.failures()

    def test_conjugation_symmetry_matches_pairing_loop(self):
        # Exact spectra, one value of a pair moved by 1e-3, and one value
        # dropped; the loop reports a finite nearest distance for the last.
        for seed in range(8):
            pencil = random_pencil(3 + seed % 4, 60 + seed, damping_scale=0.5)
            system = build_linearization(pencil)
            spec = full_spectrum(system)
            w = spec.raw_eigenvalues
            k = int(np.argmax(w.imag))
            for case, broken in enumerate((w, w + 1e-3 * (np.arange(w.size) == k),
                                           np.delete(w, k))):
                report = structural_report(
                    system, dataclasses.replace(spec, raw_eigenvalues=broken))
                check = {c.label: c for c in report.checks}["conjugation_symmetry"]
                paired, worst = conjugate_pairing(broken, spec.cluster_tolerance)
                assert check.ok == paired == (case == 0)
                if case < 2:
                    assert check.data["worst_pair_distance"] == worst

    def test_spectrum_matches_det_polynomial_oracle(self):
        for seed in range(8):
            dim = 2 + seed % 3
            pencil = random_pencil(dim, 200 + seed, damping_scale=2.5)
            spec = full_spectrum(build_linearization(pencil))
            oracle = det_poly_eigenvalues(pencil.a0_matrix, pencil.d_matrix)
            match_multisets(spec.raw_eigenvalues, oracle, 1e-7)


class TestPencilEquivalence:
    def test_diag_fixture(self, diag_pencil):
        spec = full_spectrum(build_linearization(diag_pencil))
        report = check_pencil_equivalence(diag_pencil, spec)
        assert report.ok, report.failures()

    @pytest.mark.parametrize("case", [
        "diag", "beam30", "overdamped0", "overdamped1", "overdamped2",
    ])
    def test_real_eigenvalues_match_svd(self, case, diag_pencil):
        if case == "diag":
            pencil = diag_pencil
        elif case == "beam30":
            pencil = discretize_beam(beam_cfg(30))
        else:
            pencil = overdamped_pencil(int(case[-1]))
        spec = full_spectrum(build_linearization(pencil))
        checks = check_pencil_equivalence(pencil, spec).checks
        assert len(checks) == len(spec.eigenvalues)
        n_real = 0
        for lam, check in zip(spec.eigenvalues, checks):
            if lam.imag != 0.0:
                continue
            n_real += 1
            t = pencil.t_matrix(lam.real)
            s = np.linalg.svd(t, compute_uv=False)
            scale = (lam.real ** 2 + abs(lam.real) * np.linalg.norm(pencil.d_matrix, 2)
                     + np.linalg.norm(pencil.a0_matrix, 2))
            kernel_dim = int(np.sum(s < 1e-8 * scale))
            ok = s[-1] <= 1e-8 * scale and kernel_dim == check.data["geometric_multiplicity"]
            eta = check.data["backward_error"]
            # sigma_min(T) <= |T x| / |x| = eta * scale for any x; both sides
            # may sit at rounding level, so s[-1] keeps the SVD's 1e-13 * s[0].
            assert s[-1] <= eta * check.data["scale"] * (1.0 + 1e-12) + 1e-13 * s[0]
            assert eta <= 1e-8
            assert check.data["kernel_dim"] == kernel_dim
            assert check.ok == ok
            assert abs(check.data["scale"] - scale) <= 1e-13 * scale
        assert n_real >= 2

    @pytest.mark.parametrize("case", ["diag", "beam20"])
    def test_moved_eigenvalue_fails(self, case, diag_pencil):
        # Negative control: a simple eigenvalue moved by 1e-6 relative is no
        # longer an eigenvalue of T to backward error 1e-8; the rest still are.
        pencil = diag_pencil if case == "diag" else discretize_beam(beam_cfg(20))
        spec = full_spectrum(build_linearization(pencil))
        k = int(np.argmax(np.abs(spec.eigenvalues)))
        assert spec.algebraic_multiplicities[k] == 1
        moved = spec.eigenvalues.copy()
        moved[k] *= 1.0 + 1e-6
        moved_spec = dataclasses.replace(spec, eigenvalues=moved)
        checks = check_pencil_equivalence(pencil, moved_spec).checks
        assert checks[k].data["backward_error"] > 1e-8
        assert [c.ok for c in checks] == [i != k for i in range(len(checks))]

    def test_full_kernel_counts_both_dimensions(self):
        # T(lam) = 0 at both double eigenvalues -3 +- sqrt7, so |T(lam)| is
        # no measure of rank there.
        pencil = QuadraticPencil(np.diag([2.0, 2.0]), np.diag([6.0, 6.0]))
        spec = full_spectrum(build_linearization(pencil))
        report = check_pencil_equivalence(pencil, spec)
        checks = report.checks
        assert len(checks) == 2
        for check in checks:
            assert check.data["kernel_dim"] == check.data["geometric_multiplicity"] == 2
            assert check.ok
        assert report.ok

    @pytest.mark.parametrize("c, a22, d22", [(6.0, 38.0, 108.0), (8.0, 96.0, 192.0)])
    def test_coupled_jordan_cluster(self, c, a22, d22):
        # T(-1) e1 = 0 and e1 . T'(-1) e1 = 0, so -1 is a defective double
        # eigenvalue, but T'(-1) e1 = (0, c) != 0: at the cluster mean either
        # member's eigenvector has backward error about 2e-9 here (sqrt(eps)
        # times the coupling), while the members split by a tenth of the
        # cluster tolerance. The cluster takes the minimum over x.
        pencil = QuadraticPencil([[1.0, c], [c, a22]], [[2.0, c], [c, d22]])
        spec = full_spectrum(build_linearization(pencil))
        k = int(np.argmin(np.abs(spec.eigenvalues + 1.0)))
        assert spec.algebraic_multiplicities[k] == 2
        assert spec.geometric_multiplicities[k] == 1
        check = check_pencil_equivalence(pencil, spec).checks[k]
        s = np.linalg.svd(pencil.t_matrix(spec.eigenvalues[k].real), compute_uv=False)
        assert check.data["kernel_dim"] == 1
        assert check.data["backward_error"] <= 1e-14
        assert abs(check.data["backward_error"] * check.data["scale"] - s[-1]) <= 1e-13 * s[0]
        assert check.ok

    def test_zero_is_regular(self, diag_pencil):
        t0 = diag_pencil.a0_matrix
        assert np.linalg.svd(t0, compute_uv=False)[-1] > 0.1

    @pytest.mark.parametrize("profile", [
        {"profile": "constant", "params": {"value": 4.0}},
        {"profile": "four_plus_sin", "params": {}},
    ])
    def test_graded_beam_at_n100(self, profile):
        # cond(A0) = n^4 = 1e8: a rank cut relative to sigma_max(A0) would
        # call T(0) singular, though A0 is certified definite at construction.
        pencil = discretize_beam(BeamConfig(
            a0=1.0, damping=make_damping_profile(profile), n_modes=100))
        report = check_pencil_equivalence(pencil, full_spectrum(build_linearization(pencil)))
        assert report.ok, report.failures()

    def test_random_property(self):
        for seed in range(8):
            pencil = random_pencil(3 + seed % 4, 300 + seed, damping_scale=4.0)
            spec = full_spectrum(build_linearization(pencil))
            report = check_pencil_equivalence(pencil, spec)
            assert report.ok, report.failures()


class TestSemisimplicity:
    def test_simple_root(self, diag_pencil):
        system = build_linearization(diag_pencil)
        assert semisimplicity_check(system, -3.0 + SQRT7)

    def test_jordan_block(self, critical_1x1):
        system = build_linearization(critical_1x1)
        assert not semisimplicity_check(system, -1.0)


class TestResolventRegions:
    def test_diag_fixture_clean(self, diag_pencil):
        spec = full_spectrum(build_linearization(diag_pencil))
        report = resolvent_region_check(diag_pencil, spec)
        assert report.ok, report.failures()

    def test_matched_damping_exceptional_points(self):
        # damping equal to stiffness with min eigenvalue 1/2: gamma = 1, and
        # the mode at 2 produces eigenvalues exactly at the excused corner
        # points -1 +- i, while the mode at 1/2 sits outside the wedge with
        # arg in (pi/2, 3pi/4).
        a0 = np.diag([0.5, 2.0])
        pencil = QuadraticPencil(a0, a0)
        spec = full_spectrum(build_linearization(pencil))
        expected = [
            complex(-0.25, np.sqrt(7) / 4), complex(-0.25, -np.sqrt(7) / 4),
            complex(-1.0, 1.0), complex(-1.0, -1.0),
        ]
        sorted_spec = sorted(spec.raw_eigenvalues, key=lambda z: (z.real, z.imag))
        sorted_exp = sorted(expected, key=lambda z: (z.real, z.imag))
        for a, b in zip(sorted_spec, sorted_exp):
            assert abs(a - b) < 1e-12
        report = resolvent_region_check(pencil, spec)
        assert report.ok, report.failures()

    def test_matches_loop_oracle_with_injected_values(self):
        # Random spectra with points injected into the disc, the wedge, onto
        # its edge and next to an exceptional point, in shuffled order.
        rng = np.random.default_rng(11)
        for seed in range(6):
            pencil = random_pencil(3 + seed % 4, 420 + seed, damping_scale=3.0)
            spec = full_spectrum(build_linearization(pencil))
            _, gamma = compute_delta_gamma(pencil)
            inv_g, radius = 1.0 / gamma, disc_radius(pencil)
            re = -inv_g * rng.uniform(0.05, 0.95, 4)
            injected = np.concatenate([
                re + 1j * re * rng.uniform(-0.9, 0.9, 4),
                radius * rng.uniform(0.1, 0.9, 2) * np.exp(2j * np.pi * rng.uniform(size=2)),
                [complex(-inv_g, -inv_g) + 1e-12, complex(re[0], -re[0])],
            ])
            w = rng.permutation(np.concatenate([spec.raw_eigenvalues, injected]))
            report = resolvent_region_check(
                pencil, dataclasses.replace(spec, raw_eigenvalues=w))
            disc_ok, worst, triangle_ok, violations = resolvent_regions_loop(
                w, gamma, radius)
            disc, triangle = report.checks
            assert (disc.ok, disc.data["worst_violation_depth"]) == (disc_ok, worst)
            assert (triangle.ok, triangle.data["violations"]) == (triangle_ok, violations)
            assert len(violations) >= 4

    def test_requires_damping(self, undamped_pencil):
        spec = full_spectrum(build_linearization(undamped_pencil))
        with pytest.raises(InvalidArgumentError):
            resolvent_region_check(undamped_pencil, spec)

    def test_random_pencils_clean(self):
        for seed in range(10):
            pencil = random_pencil(3 + seed % 5, 400 + seed, damping_scale=3.0)
            spec = full_spectrum(build_linearization(pencil))
            report = resolvent_region_check(pencil, spec)
            assert report.ok, report.failures()
