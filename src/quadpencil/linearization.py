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

Apart from the companion and the eigenvectors of its blocks, the spectrum
path forms no 2n x 2n array: the clusters come from bucketed pairs
(blocks._cluster_labels), the damping blocks from the blocks' eigenpairs
(BlockEig), and the structure defects and T(lam) x (whose backward error is
each eigenvalue's one residual) from slices of SLICE rows or columns. A
multiple cluster's kernel, dim ker(A - lam I) = dim ker T(lam), is counted
on the graded blocks of T(lam) that variational counts on (_graded_kernel),
whose dropped coupling lies far below the cut (pencil.graded_t).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import blocks
from .errors import ComputationError, InvalidArgumentError
from .pencil import QuadraticPencil, compute_delta_gamma, disc_radius, graded_t
from .reports import Report

J_SYMMETRY_TOL = 1e-12
# How structural_report measures its defects (_norm_bound), as its check
# data names it.
DEFECT_NORM = "sqrt(|R|_1 |R|_inf)"
# full_spectrum joins eigenvalues closer than CLUSTER_REL_TOL * |A|.
CLUSTER_REL_TOL = 1e-8
# A graded singular value below KERNEL_REL_TOL of its block's scale is zero.
KERNEL_REL_TOL = 1e-8
# The diagonal of J = diag(I, -I), one entry per half (_symmetry_defect).
_J_SIGNS = np.array([1.0, -1.0])
# The width of the slices in which T(lam) x (check_pencil_equivalence) and
# the defects of structural_report are taken: their temporaries have SLICE
# columns or rows where the whole would have up to 2n.
SLICE = 64
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
            top = max(top, float(np.abs(np.linalg.eigvalsh(sym)).max()))
        return top


@dataclass(frozen=True)
class SpectrumResult:
    """Clustered eigenvalues of the companion matrix with multiplicities.
    vectors[:, k] is a kernel vector of T(lam), lam = eigenvalues[k]: a simple
    eigenvalue's damping block w of its eigenvector (u, w) (A v = lam v gives
    T(lam) w = 0), a cluster's graded kernel vector at its mean (_graded_kernel)."""

    eigenvalues: np.ndarray          # one representative per cluster
    algebraic_multiplicities: np.ndarray
    geometric_multiplicities: np.ndarray
    cluster_tolerance: float
    raw_eigenvalues: np.ndarray      # all 2n values from companion_eig, block by block
    vectors: np.ndarray              # n x clusters, ordered like eigenvalues
    block_sizes: tuple[int, ...]     # companion_eig's blocks


def build_linearization(pencil: QuadraticPencil) -> LinearizedSystem:
    n = pencil.dim
    a = np.zeros((2 * n, 2 * n))
    pencil.a0_sqrt_blocks.dense(out=a[:n, n:])
    np.negative(a[:n, n:], out=a[n:, :n])
    np.negative(pencil.d_matrix, out=a[n:, n:])
    return LinearizedSystem(a_matrix=a, dim=n, pencil=pencil)


def _slices(width: int):
    """The slices of SLICE indices that cover range(width)."""
    return (slice(start, min(start + SLICE, width)) for start in range(0, width, SLICE))


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=0), the same sums, without its argument
    handling: the backward-error loop calls it per slice."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=0))


def _real_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x for a real m. A complex x is taken as the real array of its
    parts side by side, so the product is one real product and m is not
    copied to complex."""
    if x.dtype.kind != "c":
        return m @ x
    return (m @ np.ascontiguousarray(x).view(float)).view(complex)


class BlockEig(NamedTuple):
    """Eigenpairs of a matrix solved block by block (companion_eig), held on
    its blocks: no N x N array of eigenvectors is formed.

    block_sizes are in the order of each block's smallest index, and values
    are laid out block by block in that order. pairs holds, per block size,
    (slots, rows, vectors): block b is the matrix on the indices rows[b],
    and vectors[b][:, j] is its eigenvector of eigenvalue values[slots[b, j]],
    zero off rows[b].
    """

    values: np.ndarray
    block_sizes: tuple[int, ...]
    pairs: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def tails(self, columns: np.ndarray) -> np.ndarray:
        """The eigenvectors at the slots columns on the second half of their
        block's indices, as the columns of an N/2 x len(columns) array. On a
        companion partition (blocks.companion: block r of the pencil with
        r + n) that half is the rows r + n, so column k is the damping block
        w of the eigenvector (u, w) at columns[k], in the pencil's rows."""
        n = self.values.size // 2
        out = np.zeros((n, columns.size), np.result_type(*(v for *_, v in self.pairs)))
        for slots, rows, v in self.pairs:
            size = rows.shape[1]
            block = slots[:, 0].searchsorted(columns, side="right") - 1
            local = columns - slots[block, 0]
            mine = (local.view(np.uintp) < size).nonzero()[0]  # 0 <= local < size
            block, local = block[mine], local[mine]
            out[rows[block, size // 2:] - n, mine[:, None]] = v[block, size // 2:, local]
        return out


def companion_eig(a: np.ndarray, partition: blocks.Partition) -> BlockEig:
    """Eigenpairs of a square matrix, from one np.linalg.eig call per block
    size on the stack of its diagonal blocks, those of partition. A matrix
    with one block is solved whole, so there is no second code path. The
    eigenvectors stay on the blocks (BlockEig); neither the stacks of blocks
    nor a itself are kept.

    Soundness: the dropped coupling E has |E|_2 <= 2N eps |a|_2 for an
    N x N matrix (4n eps |a|_2 for the 2n x 2n companion), the order of
    dgeev's own backward error. Verdicts are decided on the true matrices,
    not on the blocks.
    """
    values = np.empty(a.shape[0], dtype=complex)
    pairs = []
    for slots, rows, stack in partition.stacks(a):
        # slots: the positions of each block of this size when the indices
        # are laid out block by block, which are also the columns of its
        # eigenpairs.
        try:
            values[slots], v = np.linalg.eig(stack)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
            raise ComputationError(
                "eigensolver failed", condition=float(np.linalg.cond(a))
            ) from exc
        pairs.append((slots, rows, v))
    return BlockEig(values, partition.sizes, tuple(pairs))


def _graded_kernel(pencil: QuadraticPencil, lam: complex) -> tuple[int, np.ndarray]:
    """dim ker T(lam) and a kernel vector x, from one stacked SVD per block
    size of G T(lam) G (graded_t; real at a real lam): the singular values
    below KERNEL_REL_TOL of their block's graded scale, and x = G v, v the
    right singular vector of the smallest one relative to its block's scale."""
    lam = lam.real if lam.imag == 0.0 else lam
    kernel, smallest = 0, np.inf
    for block in pencil.graded_blocks:
        rows, g2 = block[:2]
        t, scale = graded_t(block, np.full(len(rows), lam))
        _, s, vh = np.linalg.svd(t)
        kernel += int(np.count_nonzero(s < KERNEL_REL_TOL * scale[:, None]))
        relative = s[:, -1] / scale
        b = int(relative.argmin())
        if relative[b] < smallest:
            smallest, at, v = relative[b], rows[b], np.sqrt(g2[b]) * vh[b, -1].conj()
    x = np.zeros(pencil.dim, v.dtype)
    x[at] = v
    return kernel, x


def full_spectrum(system: LinearizedSystem) -> SpectrumResult:
    """All 2n eigenvalues, clustered into multiplicity groups at
    CLUSTER_REL_TOL * |A|, |A| = system.norm from the blocks' symmetric
    eigensolves.

    The eigenpairs come from companion_eig on system.partition, whose
    dropped coupling E has |E|_2 <= 4n eps |A|; structural_report and
    check_pencil_equivalence use the true matrices, and the latter's
    backward error of (lam, x) is each eigenvalue's residual. The damping
    blocks in vectors are read from the blocks' eigenvectors
    (BlockEig.tails), so apart from the companion and its eigenvectors no
    array is N x N.

    Algebraic multiplicity is the cluster size, and a cluster's
    representative its members' mean (a singleton's is its eigenvalue), from
    the labels by array reductions. The geometric multiplicity and vector of
    a cluster of two or more come from the graded T(lam) at its mean
    (_graded_kernel); a simple eigenvalue has 1 <= geo <= alg = 1.
    """
    cluster_tolerance = CLUSTER_REL_TOL * system.norm
    eig = companion_eig(system.a_matrix, system.partition)
    w = eig.values

    labels = blocks._cluster_labels(w, cluster_tolerance)
    alg = np.bincount(labels)
    # The first member of each cluster: the labels are numbered in order of
    # their first members, so the running maximum first reaches k there.
    first = np.maximum.accumulate(labels).searchsorted(np.arange(alg.size))
    reps = w[first]
    multiple = (alg > 1).nonzero()[0]
    reps[multiple] = (np.bincount(labels, w.real)[multiple]
                      + 1j * np.bincount(labels, w.imag)[multiple]) / alg[multiple]
    order = np.lexsort((np.abs(reps.imag), -reps.real))
    geo, vectors = np.ones_like(alg), eig.tails(first[order])
    for i in (alg[order] > 1).nonzero()[0]:
        geo[i], vectors[:, i] = _graded_kernel(system.pencil, reps[order[i]])
    return SpectrumResult(
        eigenvalues=reps[order],
        algebraic_multiplicities=alg[order],
        geometric_multiplicities=geo,
        cluster_tolerance=float(cluster_tolerance),
        raw_eigenvalues=w,
        vectors=vectors,
        block_sizes=eig.block_sizes,
    )


def _norm_bound(slices) -> float:
    """sqrt(|R|_1 |R|_inf) of a matrix R given as the slices of its rows,
    in order: the column sums of |R| are accumulated and the largest row
    sum kept one slice at a time, so no array of R's size is formed. An
    upper bound on |R|_2 (|R|_2^2 = rho(R^T R) <= |R^T R|_1 <= |R^T|_1
    |R|_1), equal to it when each row and column of R holds at most one
    nonzero entry (a single entry, a multiple of I): O(N^2) sums in place
    of an SVD."""
    cols, rows = None, 0.0
    for r in slices:
        mag = np.abs(r)
        col = mag.sum(axis=0)
        cols = col if cols is None else cols + col
        rows = max(rows, mag.sum(axis=1).max())
    return float(np.sqrt(cols.max() * rows))


def _symmetry_defect(a: np.ndarray, n: int):
    """The rows of J A - (J A)^T, J = diag(I, -I), a slice at a time: rows
    r of J A are those of A times J's diagonal there, rows r of (J A)^T the
    columns r of A, times J's diagonal, transposed."""
    sign = _J_SIGNS.repeat(n)
    for r in _slices(2 * n):
        yield a[r] * sign[r, None] - a[:, r].T * sign


def _inverse_defect(a: np.ndarray, n: int, pencil: QuadraticPencil):
    """The rows of R = A A^{-1} - I for the closed form
    A^{-1} = [[-W, -S^{-1}], [S^{-1}, 0]], W the whitened damping and
    S^{-1} = A0^{-1/2}, a slice at a time: a row [A_1, A_2] of A gives the
    row [A_2 S^{-1} - A_1 W, -A_1 S^{-1}] of A A^{-1}. Both halves of the
    rows are multiplied by S^{-1} in one product on A0's blocks
    (a0_inv_sqrt_blocks)."""
    for r in _slices(2 * n):
        rows = a[r]
        size = len(rows)
        halves = pencil.a0_inv_sqrt_blocks.right(rows.reshape(2 * size, n)).reshape(size, 2, n)
        out = np.empty((size, 2 * n))
        np.subtract(halves[:, 1], rows[:, :n] @ pencil.whitened_damping, out=out[:, :n])
        np.negative(halves[:, 0], out=out[:, n:])
        out.reshape(-1)[r.start::2 * n + 1] -= 1.0  # less the rows r of I
        yield out


def structural_report(system: LinearizedSystem, spectrum: SpectrumResult) -> Report:
    """Signature symmetry, closed-form inverse, half-plane location and
    invertibility, as one pass/fail report (dgeev pairs conjugates exactly).

    Both defects are taken from all four n x n blocks of a_matrix, a slice
    of SLICE rows of the defect at a time (_symmetry_defect,
    _inverse_defect, _norm_bound), so no other 2n x 2n array is formed.
    With J = diag(I, -I), the symmetry defect is
    J A - (J A)^T. For the blocks 0, s, -s, -D of a valid companion (D
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
    sym = _norm_bound(_symmetry_defect(a, n))
    report.add("j_symmetry", sym <= J_SYMMETRY_TOL * scale,
               defect=sym, bound=J_SYMMETRY_TOL * scale, norm=DEFECT_NORM)
    inv = _norm_bound(_inverse_defect(a, n, pencil))
    _, gamma = compute_delta_gamma(pencil)
    inv_bound = (2.0 * 2 * n * np.finfo(float).eps * scale
                 * (gamma + np.sqrt(pencil.a0_inv_norm)))
    report.add("inverse_identity", inv <= inv_bound, defect=inv, bound=inv_bound,
               norm=DEFECT_NORM)
    w, tol = spectrum.raw_eigenvalues, spectrum.cluster_tolerance
    max_re = float(w.real.max())
    report.add("left_half_plane", max_re <= 1e-10 * scale,
               max_real_part=max_re, bound=1e-10 * scale)
    min_abs = float(np.abs(w).min())
    report.add("zero_not_eigenvalue", min_abs > tol,
               min_abs=min_abs, cluster_tolerance=tol)
    return report


def check_pencil_equivalence(pencil: QuadraticPencil, spectrum: SpectrumResult) -> Report:
    """Each companion eigenvalue must be a rank drop of T(lam) of the same depth.

    Per cluster, the backward error eta = |T(lam) x| / (scale |x|) of the
    eigenpair (lam, x) from full_spectrum (Tisseur 2000) must be at most
    1e-8, which bounds sigma_min(T(lam)) by 1e-8 * scale, and the kernel
    dimension must equal the geometric multiplicity. scale is
    |lam|^2 + |lam| |D| + |A0|, the size of the three terms of T(lam) (not
    |T(lam)|, which vanishes when the whole space is the kernel); x is the
    spectrum's vectors column. A simple eigenvalue has kernel dimension 1;
    a cluster's is recounted (_graded_kernel), not read from the spectrum.
    T(0) = A0 is certified definite. T(lam) x is formed with the true D and
    A0, for SLICE columns at a time, in real products (_real_product).
    """
    report = Report("pencil_equivalence")
    lam, x = spectrum.eigenvalues, spectrum.vectors
    scales = pencil.term_scale(lam)
    etas = np.empty(lam.size)
    for cols in _slices(lam.size):
        x_k, lam_k = x[:, cols], lam[cols]
        t_x = (x_k * lam_k ** 2 + _real_product(pencil.d_matrix, x_k) * lam_k
               + _real_product(pencil.a0_matrix, x_k))
        etas[cols] = _norms(t_x) / (scales[cols] * _norms(x_k))
    for z, eta, scale, alg, geo in zip(*(v.tolist() for v in (
            lam, etas, scales, spectrum.algebraic_multiplicities,
            spectrum.geometric_multiplicities))):
        kernel_dim = _graded_kernel(pencil, z)[0] if alg > 1 else 1
        report.add(
            "eigenvalue_matches_pencil", eta <= 1e-8 and kernel_dim == geo,
            eigenvalue=z, backward_error=eta, scale=scale,
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
               worst_violation_depth=float(depth[deep].max(initial=0.0)))

    excused = np.abs(w[:, None] - exceptional).min(axis=1) <= eps
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
