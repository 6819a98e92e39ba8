"""First-order block companion of the pencil and its full complex spectrum.

The companion operator is represented in whitened coordinates: conjugating
by diag(A0^{1/2}, I) turns the energy inner product into the standard one,
so signature symmetry, dissipativity and the closed-form inverse all become
plain dense-matrix statements checkable by ordinary eigensolvers.
build_linearization only assembles the companion; structural_report is the
one place that measures and decides its signature symmetry and closed-form
inverse (by the inverse's n x n blocks: no 2n x 2n inverse is formed), so a
defect is a failed check with its witness, not an exception.

Every eigensolve of the companion goes through companion_eig, on its
diagonal blocks; each LinearizedSystem derives them from the pencil's
partition (block r of the pencil with r + n, blocks.companion), and its
norm and the trapezoid propagator of evolution.simulate use the same
blocks. Modes that a symmetric damping profile decouples exactly (odd from
even, or each from every other under constant damping) then cost one small
eigensolve each instead of a share of one 2n x 2n eigensolve.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import blocks
from .errors import ComputationError, InvalidArgumentError
from .pencil import KERNEL_REL_TOL, QuadraticPencil, compute_delta_gamma, disc_radius
from .reports import Report

J_SYMMETRY_TOL = 1e-12
# How structural_report measures its defects (_norm_bound), as its check
# data names it.
DEFECT_NORM = "sqrt(|R|_1 |R|_inf)"
# full_spectrum joins eigenvalues closer than CLUSTER_REL_TOL * |A|.
CLUSTER_REL_TOL = 1e-8
# resolvent_region_check excuses eigenvalues within REGION_MARGIN (relative)
# of an exceptional point or of the region boundary.
REGION_MARGIN = 1e-9


@dataclass(frozen=True)
class LinearizedSystem:
    """2n x 2n companion matrix in whitened coordinates.

    a_matrix is [[0, A0^{1/2}], [-A0^{1/2}, -D]] for pencil, whose inverse
    [[-W, -A0^{-1/2}], [A0^{-1/2}, 0]] (W the pencil's whitened damping) is
    never assembled; partition is the companion's blocks, derived from the
    pencil's; norm is |A|_2 from the blocks' symmetric eigensolves, not an SVD.
    """

    a_matrix: np.ndarray
    dim: int
    pencil: QuadraticPencil

    @cached_property
    def partition(self) -> blocks.Partition:
        """The pencil's partition with each block r taken with r + n, with
        no partition of the companion itself. A0^{1/2} is exactly zero
        between the pencil's blocks (QuadraticPencil._a0_eig), so the
        dropped coupling is that of -D, whose entries pass the deflation
        test of the companion's own diagonal -D: |E|_2 <= 4n eps |A|."""
        return blocks.companion(self.pencil.partition, self.dim)

    @cached_property
    def norm(self) -> float:
        """|A|_2 from one stacked eigvalsh per block size. With
        J = diag(I, -I), J A = [[0, S], [S, D]] for S = A0^{1/2}; J is
        orthogonal, so |A|_2 = |J A|_2, the largest |eigenvalue| of its
        symmetric part (J A + (J A)^T) / 2 when S is symmetric. Rounding
        leaves S - S^T nonzero, and the value then differs from the SVD's
        |A|_2 by at most |S - S^T|_2 / 2, which structural_report's
        j_symmetry check bounds.

        The eigenvalues are taken on the companion's blocks: an entry of
        the symmetric part between two blocks is at most the larger of
        |a_ij| and |a_ji|, below the deflation threshold, and its diagonal
        is that of A up to sign, so the dropped coupling E has
        |E|_2 <= 2N eps |A| (N = 2n) and moves the value by at most that
        (Weyl): the order of the backward error of the whole eigvalsh.
        """
        top = 0.0
        for _, rows, stack in self.partition.stacks(self.a_matrix):
            stack[rows >= self.dim] *= -1.0  # the rows of J A
            sym = (stack + np.swapaxes(stack, 1, 2)) / 2.0
            top = max(top, float(np.max(np.abs(np.linalg.eigvalsh(sym)))))
        return top


@dataclass(frozen=True)
class SpectrumResult:
    """Clustered eigenvalues of the companion matrix with multiplicities.
    vectors[:, k] is the damping block w of one member's eigenvector (u, w)
    in cluster k: A v = lam v gives T(lam) w = 0 at lam = eigenvalues[k]."""

    eigenvalues: np.ndarray          # one representative per cluster
    algebraic_multiplicities: np.ndarray
    geometric_multiplicities: np.ndarray
    residuals: np.ndarray            # max |A v - lam v| over cluster members
    cluster_tolerance: float
    raw_eigenvalues: np.ndarray      # all 2n values from companion_eig, block by block
    vectors: np.ndarray              # n x clusters, ordered like eigenvalues
    block_sizes: tuple[int, ...]     # companion_eig's blocks


def build_linearization(pencil: QuadraticPencil) -> LinearizedSystem:
    n = pencil.dim
    a = np.zeros((2 * n, 2 * n))
    a[:n, n:] = pencil.a0_sqrt
    np.negative(pencil.a0_sqrt, out=a[n:, :n])
    np.negative(pencil.d_matrix, out=a[n:, n:])
    return LinearizedSystem(a_matrix=a, dim=n, pencil=pencil)


class BlockEig(NamedTuple):
    """Eigenvalues of a matrix solved block by block (companion_eig).

    values[k] belongs to the eigenvector vectors[:, k], which is zero off
    its block. block_sizes are in the order of each block's smallest index, and values and vectors
    are laid out block by block in that order. pairs holds, per block size,
    the (slots, stack, eigenvectors) of its blocks that residuals reads.
    """

    values: np.ndarray
    vectors: np.ndarray
    block_sizes: tuple[int, ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def residuals(self, shifts: np.ndarray) -> np.ndarray:
        """|B v_k - shifts[k] v_k| / |v_k| for every eigenvector v_k, B its
        block: one product per block size, and no N x N array."""
        out = np.empty(self.values.size)
        for slots, stack, v in self.pairs:
            r = stack @ v - v * shifts[slots][:, None, :]
            out[slots] = np.linalg.norm(r, axis=1) / np.linalg.norm(v, axis=1)
        return out


def companion_eig(a: np.ndarray, partition: blocks.Partition | None = None) -> BlockEig:
    """Eigenpairs of a square matrix, from one np.linalg.eig call per block
    size on the stack of its diagonal blocks: partition, or
    blocks.partition(a) when none is given. A matrix with one block is
    solved whole, so there is no second code path.

    Soundness: the dropped coupling E has |E|_2 <= 2N eps |a|_2 for an
    N x N matrix (4n eps |a|_2 for the 2n x 2n companion), the order of
    dgeev's own backward error. Verdicts are decided on the true matrices,
    not on the blocks.
    """
    part = blocks.partition(a) if partition is None else partition
    values = np.empty(a.shape[0], dtype=complex)
    pairs = []
    for slots, rows, stack in part.stacks(a):
        # slots: the positions of each block of this size when the indices
        # are laid out block by block, which are also the columns of its
        # eigenpairs.
        try:
            values[slots], v = np.linalg.eig(stack)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
            raise ComputationError(
                "eigensolver failed", condition=float(np.linalg.cond(a))
            ) from exc
        pairs.append((slots, stack, v))
    # Real when every eigenvalue is, as from LAPACK: products with the
    # vectors downstream stay real GEMMs.
    vecs = np.zeros(a.shape, np.result_type(*(v for _, _, v in pairs)))
    for (slots, _, v), (_, rows) in zip(pairs, part.groups):
        vecs[rows[:, :, None], slots[:, None, :]] = v
    return BlockEig(values, vecs, part.sizes, tuple(pairs))


def _nullity(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return m.shape[1]
    return int(np.sum(s < KERNEL_REL_TOL * s[0]))


def full_spectrum(system: LinearizedSystem) -> SpectrumResult:
    """All 2n eigenvalues with residuals, clustered into multiplicity groups
    at CLUSTER_REL_TOL * |A|, |A| = system.norm from the blocks' symmetric
    eigensolves.

    The eigenpairs come from companion_eig on system.partition, block by
    block: A is split where an entry |A_ij| is at most eps (|A_ii| +
    |A_jj|), and the dropped coupling E has |E|_2 <= 4n eps |A|, the order
    of dgeev's backward error. The residuals |A v - lam v| are taken on the
    blocks (BlockEig.residuals), so they omit |E v| <= 4n eps |A| |v|; the
    geometric multiplicities below, structural_report and
    check_pencil_equivalence use the true matrices.

    Algebraic multiplicity is the cluster size. Geometric multiplicity is
    the numerical kernel dimension of (A - lam I), computed only for
    clusters of two or more: a simple eigenvalue has 1 <= geo <= alg = 1,
    so one eigensolve plus O(n^2) residual work per eigenvalue covers it.
    The representative of a cluster is its members' mean (a singleton's is
    its eigenvalue); means, residual maxima and the first members come from
    the cluster labels by array reductions, not a loop over eigenvalues.
    """
    cluster_tolerance = CLUSTER_REL_TOL * system.norm
    eig = companion_eig(system.a_matrix, system.partition)
    w, v = eig.values, eig.vectors

    labels = blocks._cluster_labels(w, cluster_tolerance)
    alg = np.bincount(labels)
    _, first = np.unique(labels, return_index=True)
    reps = w[first]
    multiple = np.flatnonzero(alg > 1)
    reps[multiple] = (np.bincount(labels, w.real)[multiple]
                      + 1j * np.bincount(labels, w.imag)[multiple]) / alg[multiple]
    geo = np.ones_like(alg)
    for k in multiple:
        geo[k] = _nullity(system.a_matrix - reps[k] * np.eye(2 * system.dim))
    # |A v - lam v| / |v| of every eigenvector at its cluster's representative.
    defect = eig.residuals(reps[labels])
    res = np.zeros(alg.size)
    np.maximum.at(res, labels, defect)
    order = np.lexsort((np.abs(reps.imag), -reps.real))
    return SpectrumResult(
        eigenvalues=reps[order],
        algebraic_multiplicities=alg[order],
        geometric_multiplicities=geo[order],
        residuals=res[order],
        cluster_tolerance=float(cluster_tolerance),
        raw_eigenvalues=w,
        vectors=v[system.dim:, first[order]],
        block_sizes=eig.block_sizes,
    )


def _norm_bound(r: np.ndarray) -> float:
    """sqrt(|R|_1 |R|_inf), an upper bound on |R|_2 (|R|_2^2 = rho(R^T R)
    <= |R^T R|_1 <= |R^T|_1 |R|_1), equal to it when each row and column
    of R holds at most one nonzero entry (a single entry, a multiple of I):
    two O(N^2) sums in place of an SVD."""
    mag = np.abs(r)
    return float(np.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max()))


def structural_report(system: LinearizedSystem, spectrum: SpectrumResult) -> Report:
    """Signature symmetry, closed-form inverse, half-plane location,
    conjugation symmetry and invertibility, as one pass/fail report.

    With J = diag(I, -I), the symmetry defect is J A - (J A)^T over all four
    blocks of a_matrix. For the blocks 0, s, -s, -D of a valid companion (D
    exactly symmetric) it is [[0, K], [K, 0]] with K = s - s^T, whose
    measure (_norm_bound) is that of K. The inverse defect is
    R = A A^{-1} - I for the closed form A^{-1} (LinearizedSystem), taken by
    A's block columns [A_1, A_2], the stored zero block too, as
    [A_2 s^{-1} - A_1 W, -A_1 s^{-1}] - I.
    An entry is two inner products of length n and one subtraction, within
    the rounding of one of length 2n, so |R|_2 <= 2n eps |A| |A^{-1}| as
    for the full product; the blocks of the closed form give
    |A^{-1}| <= gamma + |A0^{-1}|^{1/2}, so the bound is twice
    2n eps |A| (gamma + |A0^{-1}|^{1/2}). Both defects are measured by
    _norm_bound, which is no smaller than the 2-norm, so a pass certifies
    the 2-norm bound; the check data names the norm.
    """
    report = Report("structural_identities")
    a, scale, n, pencil = system.a_matrix, system.norm, system.dim, system.pencil
    ja = a.copy()
    ja[n:] *= -1.0
    sym = _norm_bound(ja - ja.T)
    report.add("j_symmetry", sym <= J_SYMMETRY_TOL * scale,
               defect=sym, bound=J_SYMMETRY_TOL * scale, norm=DEFECT_NORM)
    residual = -(a[:, :n] @ np.hstack([pencil.whitened_damping, pencil.a0_inv_sqrt]))
    residual[:, :n] += a[:, n:] @ pencil.a0_inv_sqrt
    residual[np.diag_indices(2 * n)] -= 1.0  # A A^{-1} - I
    inv = _norm_bound(residual)
    _, gamma = compute_delta_gamma(pencil)
    inv_bound = (2.0 * 2 * n * np.finfo(float).eps * scale
                 * (gamma + np.sqrt(pencil.a0_inv_norm)))
    report.add("inverse_identity", inv <= inv_bound, defect=inv, bound=inv_bound,
               norm=DEFECT_NORM)
    w, tol = spectrum.raw_eigenvalues, spectrum.cluster_tolerance
    max_re = float(np.max(w.real))
    report.add("left_half_plane", max_re <= 1e-10 * scale,
               max_real_part=max_re, bound=1e-10 * scale)
    min_abs = float(np.min(np.abs(w)))
    report.add("zero_not_eigenvalue", min_abs > tol,
               min_abs=min_abs, cluster_tolerance=tol)

    # Conjugation symmetry: the values above the axis, sorted, must match the
    # conjugates of the values below it, sorted the same way; values within
    # tol of the axis are their own partners.
    above = np.sort(w[w.imag > tol])
    below = np.sort(np.conj(w[w.imag < -tol]))
    worst = (float(np.max(np.abs(above - below), initial=0.0))
             if above.size == below.size else np.inf)
    report.add("conjugation_symmetry", worst <= tol, worst_pair_distance=worst)
    return report


def check_pencil_equivalence(pencil: QuadraticPencil, spectrum: SpectrumResult) -> Report:
    """Each companion eigenvalue must be a rank drop of T(lam) of the same depth.

    Per cluster, the backward error eta = |T(lam) x| / (scale |x|) of the
    eigenpair (lam, x) from full_spectrum (Tisseur 2000) must be at most
    1e-8, which bounds sigma_min(T(lam)) by 1e-8 * scale, and the kernel
    dimension must equal the geometric multiplicity. scale is
    |lam|^2 + |lam| |D| + |A0|, the size of the three terms of T(lam) (not
    |T(lam)|, which vanishes when the whole space is the kernel). A simple
    eigenvalue has kernel dimension 1 (1 <= geo <= alg = 1). A cluster of
    two or more counts the singular values of T(lam) below KERNEL_REL_TOL *
    scale; its eta is sigma_min / scale, the minimum over x, as x is no
    eigenvector at the cluster mean. T(0) = A0 is certified definite.
    """
    report = Report("pencil_equivalence")
    lam, x = spectrum.eigenvalues, spectrum.vectors
    t_x = x * lam ** 2 + (pencil.d_matrix @ x) * lam + pencil.a0_matrix @ x
    scales = pencil.term_scale(lam)
    etas = np.linalg.norm(t_x, axis=0) / (scales * np.linalg.norm(x, axis=0))
    for k, z in enumerate(lam):
        kernel_dim, geo = 1, int(spectrum.geometric_multiplicities[k])
        if spectrum.algebraic_multiplicities[k] > 1:
            s = np.linalg.svd(pencil.t_matrix(z), compute_uv=False)
            kernel_dim = int(np.sum(s < KERNEL_REL_TOL * scales[k]))
            etas[k] = s[-1] / scales[k]
        report.add(
            "eigenvalue_matches_pencil", etas[k] <= 1e-8 and kernel_dim == geo,
            eigenvalue=complex(z), backward_error=float(etas[k]), scale=float(scales[k]),
            kernel_dim=kernel_dim, geometric_multiplicity=geo,
        )
    return report


def resolvent_region_check(pencil: QuadraticPencil, spectrum: SpectrumResult) -> Report:
    """No eigenvalue may enter the open disc around zero or the left wedge.

    The wedge is { -1/gamma <= Re z < 0, |Im z| <= |Re z| } minus the three
    exceptional points -1/gamma and -1/gamma +- i/gamma, which genuinely can
    carry spectrum; eigenvalues within REGION_MARGIN of an exceptional point
    or of the region boundary are excused.
    """
    _, gamma = compute_delta_gamma(pencil)
    if gamma == 0.0:
        raise InvalidArgumentError("resolvent region check requires nonzero damping")
    radius = disc_radius(pencil)
    report = Report("resolvent_exclusion_regions")
    inv_g = 1.0 / gamma
    exceptional = np.array([complex(-inv_g, 0.0), complex(-inv_g, inv_g),
                            complex(-inv_g, -inv_g)])
    eps = REGION_MARGIN * max(1.0, inv_g)
    w = spectrum.raw_eigenvalues

    depth = radius - np.abs(w)
    deep = depth > REGION_MARGIN * radius
    report.add("open_disc_excluded", not deep.any(), radius=radius,
               worst_violation_depth=float(np.max(depth[deep], initial=0.0)))

    excused = np.min(np.abs(w[:, None] - exceptional), axis=1) <= eps
    inside = (~excused & (w.real >= -inv_g + eps) & (w.real <= -eps)
              & (np.abs(w.imag) <= -w.real - eps))
    violations = [{
        "eigenvalue": complex(lam),
        "distance_to_vertical_edge": float(lam.real + inv_g),
        "distance_to_wedge_edge": float(-lam.real - abs(lam.imag)),
    } for lam in w[inside]]
    report.add("triangle_excluded", not violations, gamma=gamma,
               inv_gamma=inv_g, violations=violations)
    return report
