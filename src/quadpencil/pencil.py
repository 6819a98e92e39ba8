"""Data model for the damped quadratic pencil T(lam) = lam^2 I + lam D + A0.

A0 is symmetric positive definite (stiffness), D symmetric positive
semidefinite (damping), the mass operator is the identity. The module owns
the scalar machinery built on the quadratic form
t(lam)[x] = lam^2 |x|^2 + lam d[x] + a0[x]: the root functionals p-/p+, the
cone of vectors with real roots, the damping-to-stiffness ratio extremes
(delta, gamma), a certified bracket on the left endpoint alpha = sup p-
and the resolvent disc radius, and the compressed pencils
B^T T(lam) B = lam^2 I + lam B^T D B + B^T A0 B on subspaces span(B).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import blocks
from .errors import InvalidArgumentError

if TYPE_CHECKING:
    from collections.abc import Iterator

# Relative eigenvalue threshold for definiteness checks at construction.
DEFINITENESS_TOL = 1e-12
# The two thresholds of every verdict, set here only: the resolution at which
# the verifiers locate real eigenvalues, and the slack of each comparison.
EIGEN_TOL = 1e-8
VERIFY_TOL = 1e-7
# Discriminants in [-DISC_CLAMP_TOL * scale, 0) are treated as exact double roots.
DISC_CLAMP_TOL = 1e-12
# compute_alpha: directions of the first sweep of support lines, bracket
# width relative to |alpha| at which refinement stops, refinement rounds at
# most, the smallest angle between neighbouring directions that is still
# split, and the support-line slack in units of n * eps * (|cos| + |sin|).
ALPHA_SWEEP = 16
ALPHA_RTOL = 1e-8
ALPHA_MAX_ROUNDS = 200
ALPHA_MIN_GAP = 1e-12
ALPHA_SLACK = 16.0


class DstarVerdict(str, Enum):
    EMPTY_CERTIFIED = "empty_certified"
    NONEMPTY_CERTIFIED = "nonempty_certified"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class QuadraticPencil:
    """The pair (A0, D) with identity mass; all analysis runs on this object.

    Construction symmetrizes both matrices exactly, makes them read-only and
    checks that every entry is finite (a block eigensolve would carry an
    infinite diagonal entry through as an eigenvalue) and, relative to each
    matrix's norm, that A0 is positive definite and D positive
    semidefinite, from the eigenvalues the pencil caches anyway.
    Pencils compare and hash by identity.
    """

    a0_matrix: np.ndarray
    d_matrix: np.ndarray

    def __post_init__(self):
        for name in ("a0_matrix", "d_matrix"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
                raise InvalidArgumentError(f"expected a square matrix, got shape {m.shape}")
            m = (m + m.T) / 2.0
            if not np.isfinite(m).all():
                raise InvalidArgumentError(f"{name} has entries that are not finite")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if self.a0_matrix.shape != self.d_matrix.shape:
            raise InvalidArgumentError(
                f"dimension mismatch: stiffness {self.a0_matrix.shape[0]}, "
                f"damping {self.d_matrix.shape[0]}"
            )
        w = self._a0_eig[0]
        tol = DEFINITENESS_TOL * float(np.max(np.abs(w)))
        if w[0] <= tol:
            raise InvalidArgumentError(
                f"matrix is not positive definite: min eigenvalue {w[0]:.3e} "
                f"(threshold {tol:.3e})"
            )
        w = self._d_eigvals
        if w[0] < -DEFINITENESS_TOL * float(np.max(np.abs(w))):
            raise InvalidArgumentError(
                f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.a0_matrix.shape[0]

    @cached_property
    def partition(self) -> blocks.Partition:
        """The pencil's blocks: the connected components of the union of the
        deflation graphs of D and A0 (blocks.partition). Every block solve
        of the pencil takes these, T(lam)'s with a dropped coupling of at
        most 2n eps term_scale(lam) (blocks)."""
        return blocks.partition(self.d_matrix, self.a0_matrix)

    @cached_property
    def graded_blocks(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The partition's blocks of G T(mu) G, G = diag(A0)^{-1/2}: a
        congruence of T(mu), of scale order one. Per block size, the rows,
        diag(G^2), the stacks of G D G and G A0 G, and per block the norms
        |G^2|, |G D G|_inf and |G A0 G|_inf, one row each."""
        g = 1.0 / np.sqrt(np.diagonal(self.a0_matrix))
        grading = np.outer(g, g)
        graded = []
        for (_, rows, d), (*_, a) in zip(self.partition.stacks(self.d_matrix * grading),
                                         self.partition.stacks(self.a0_matrix * grading)):
            norms = [np.abs(m).sum(axis=2).max(axis=1) for m in (d, a)]
            graded.append((rows, g[rows] ** 2, d, a, np.array([g[rows].max(axis=1) ** 2, *norms])))
        return tuple(graded)

    @cached_property
    def _a0_eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of A0, ascending, on A0's own blocks (blocks.eigh), so
        the eigenvectors, A0^{1/2} and A0^{-1/2} are exactly zero between
        them, and so between the pencil's blocks, which join A0's. A
        diagonal A0 (no nonzero entry off the diagonal, as every beam's) is
        read directly: its sorted diagonal and the matching permutation of I."""
        diag = np.diagonal(self.a0_matrix)
        if np.count_nonzero(self.a0_matrix) == np.count_nonzero(diag):
            order = np.argsort(diag, kind="stable")
            return diag[order], np.eye(self.dim)[:, order]
        return blocks.eigh(self.a0_matrix, blocks.partition(self.a0_matrix))

    @classmethod
    def _with_cone_margin(cls, a0_matrix: np.ndarray, d_matrix: np.ndarray,
                          margin: float) -> QuadraticPencil:
        """The pencil of (A0, c D), built once: c = 1 when gamma is at least
        margin |A0^{-1}|^{1/2}, else the c that makes it so. gamma and
        |A0^{-1}| are read from the cached properties of (A0, D), exactly
        symmetric, before the construction checks run; the pencil of the
        scaled damping starts from the eigenpairs of A0."""
        pencil = cls.__new__(cls)
        pencil.__dict__.update(a0_matrix=a0_matrix, d_matrix=d_matrix)
        _, gamma = compute_delta_gamma(pencil)
        needed = margin * np.sqrt(pencil.a0_inv_norm)
        if gamma < needed:
            cached, pencil = pencil._a0_eig, cls.__new__(cls)
            pencil.__dict__["_a0_eig"] = cached
            d_matrix = d_matrix * (needed / max(gamma, 1e-300))
        pencil.__init__(a0_matrix, d_matrix)
        return pencil

    @cached_property
    def a0_sqrt(self) -> np.ndarray:
        w, v = self._a0_eig
        return (v * np.sqrt(w)) @ v.T

    @cached_property
    def a0_inv_sqrt(self) -> np.ndarray:
        w, v = self._a0_eig
        return (v / np.sqrt(w)) @ v.T

    @cached_property
    def a0_norm(self) -> float:
        """Spectral norm of A0, i.e. max eig(A0)."""
        return float(self._a0_eig[0][-1])

    @cached_property
    def _d_eigvals(self) -> np.ndarray:
        """Eigenvalues of D, ascending, on the pencil's blocks
        (blocks.eigvalsh): the dropped coupling moves each by at most
        2n eps |D|, the order of the whole eigvalsh's backward error. A
        constant beam damping is diagonal, a mirror-symmetric one splits
        into odd and even modes."""
        return blocks.eigvalsh(self.d_matrix, self.partition)

    @cached_property
    def d_norm(self) -> float:
        """Spectral norm of D, i.e. max eig(D) (0 for zero damping)."""
        return max(float(self._d_eigvals[-1]), 0.0)

    @cached_property
    def a0_inv_norm(self) -> float:
        """Spectral norm of A0^{-1}, i.e. 1 / min eig(A0)."""
        return float(1.0 / self._a0_eig[0][0])

    @cached_property
    def whitened_damping(self) -> np.ndarray:
        """A0^{-1/2} D A0^{-1/2}, symmetric PSD; carries delta and gamma."""
        s = self.a0_inv_sqrt @ self.d_matrix @ self.a0_inv_sqrt
        return (s + s.T) / 2.0

    @cached_property
    def _whitened_eigvals(self) -> np.ndarray:
        """Eigenvalues of the whitened damping, ascending, on the pencil's
        blocks (blocks.eigvalsh). A0^{-1/2} is exactly zero between them, so
        the dropped coupling is A0^{-1/2} E_D A0^{-1/2}, E_D that of D, of
        norm at most 2n eps |A0^{-1}| |D|: the order of the rounding of the
        product that forms the whitened damping."""
        return blocks.eigvalsh(self.whitened_damping, self.partition)

    def t_matrix(self, lam: float) -> np.ndarray:
        """The matrix T(lam) = lam^2 I + lam D + A0, symmetric for real lam."""
        return _t(self.d_matrix, self.a0_matrix, lam)

    def term_scale(self, lam):
        """|lam|^2 + |lam| |D| + |A0|, the size of the three terms of T(lam):
        the yardstick for its rank (|T(lam)| vanishes where the whole space
        is its kernel). Elementwise for an array of lam."""
        return np.abs(lam) ** 2 + np.abs(lam) * self.d_norm + self.a0_norm


class RayleighPair(NamedTuple):
    """Real roots of t(.)[x] = 0, or the (+inf, -inf) convention when none exist."""

    p_minus: float
    p_plus: float
    in_dstar: bool


class PencilScalars(NamedTuple):
    """Derived constants of the pencil; alpha is the certified upper end of
    the alpha bracket and alpha_lower its witnessed lower end."""

    delta: float
    gamma: float
    alpha: float
    alpha_lower: float
    disc_radius: float


class AlphaResult(NamedTuple):
    """Bracket lower <= sup p- <= upper over the real-root cone.

    lower is rayleigh_pair(witness).p_minus for an explicit unit witness;
    upper bounds every rayleigh_pair value of p-. alpha is the upper end, so
    an interval (alpha, 0] never reaches left of the true one. An empty cone
    has lower = upper = -inf and no witness.
    """

    lower: float
    upper: float
    witness: np.ndarray | None

    @property
    def alpha(self) -> float:
        return self.upper

    @property
    def certificate(self) -> DstarVerdict:
        """The real-root cone verdict: empty (upper = -inf), nonempty (a
        witness exists) or inconclusive."""
        if self.upper == -np.inf:
            return DstarVerdict.EMPTY_CERTIFIED
        if self.witness is None:
            return DstarVerdict.INCONCLUSIVE
        return DstarVerdict.NONEMPTY_CERTIFIED


class DstarCertificate(NamedTuple):
    verdict: DstarVerdict
    witness: np.ndarray | None


def rayleigh_pair(pencil: QuadraticPencil, x) -> RayleighPair:
    """Solve t(lam)[x] = 0 for real lam.

    Returns both roots when the discriminant d[x]^2 - 4 |x|^2 a0[x] is
    nonnegative, else the (p_minus, p_plus) = (+inf, -inf) convention with
    in_dstar False.
    """
    x = np.asarray(x)
    if x.shape != (pencil.dim,):
        raise InvalidArgumentError(
            f"vector shape {x.shape} does not match pencil dimension {pencil.dim}"
        )
    p_minus, p_plus, feasible = _roots_from_forms(*_forms(pencil, x[:, None]))
    return RayleighPair(p_minus[0], p_plus[0], bool(feasible[0]))


def rayleigh_batch(
    pencil: QuadraticPencil, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized rayleigh_pair over the columns of an (n, m) array.

    Returns (p_minus, p_plus, in_dstar) arrays; columns outside the real-root
    cone get (+inf, -inf, False).
    """
    X = np.asarray(columns)
    if X.ndim != 2 or X.shape[0] != pencil.dim:
        raise InvalidArgumentError(
            f"expected shape ({pencil.dim}, m), got {X.shape}"
        )
    return _roots_from_forms(*_forms(pencil, X))


def _forms(pencil: QuadraticPencil, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one evaluator of the form values (|x|^2, d[x], a0[x]) that p-/p+
    solve for, at each column x of X. A complex X is an error, not its real
    part."""
    if np.iscomplexobj(X):
        raise InvalidArgumentError("p-/p+ are defined for real vectors only")
    X = X.astype(float, copy=False)
    a = np.einsum("ij,ij->j", X, X)
    if (a == 0.0).any():
        raise InvalidArgumentError("p-/p+ require nonzero vectors")
    return (a, np.einsum("ij,ij->j", X, pencil.d_matrix @ X),
            np.einsum("ij,ij->j", X, pencil.a0_matrix @ X))


def _roots_from_forms(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one scalar root solver of p-/p+, on the form values
    (|x|^2, d[x], a0[x]) themselves; cancellation-free for b = d[x] >= 0.

    Discriminants within -DISC_CLAMP_TOL * scale of zero count as double
    roots; the cone boundary is measure-zero but numerically reachable.
    """
    b2, ac4 = b * b, 4.0 * a * c
    disc = b2 - ac4
    feasible = disc >= -DISC_CLAMP_TOL * np.maximum(b2, np.abs(ac4))
    q = -(b + np.sqrt(np.maximum(disc, 0.0))) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(feasible, q / a, np.inf), np.where(feasible, c / q, -np.inf), feasible


def compute_delta_gamma(pencil: QuadraticPencil) -> tuple[float, float]:
    """Extreme eigenvalues (min, max) of the whitened damping A0^{-1/2} D A0^{-1/2}."""
    w = pencil._whitened_eigvals
    delta = max(float(w[0]), 0.0)
    gamma = max(float(w[-1]), 0.0)
    return delta, gamma


def disc_radius(pencil: QuadraticPencil) -> float:
    """Radius of the eigenvalue-free open disc around zero."""
    _, gamma = compute_delta_gamma(pencil)
    return 2.0 / (gamma + np.sqrt(gamma * gamma + 4.0 * pencil.a0_inv_norm))


def dstar_empty_certificate(pencil: QuadraticPencil) -> DstarCertificate:
    """The real-root cone verdict of compute_alpha with its witness."""
    alpha = compute_alpha(pencil)
    return DstarCertificate(alpha.certificate, alpha.witness)


def _support(d_unit: np.ndarray, a_unit: np.ndarray, part: blocks.Partition,
             thetas: np.ndarray):
    """Support lines of W in direction theta, for D and A0 scaled to unit
    norm: the top eigenpair of cos(theta) D + sin(theta) A0, taken on the
    pencil's blocks from one stacked eigh per block size, of the block whose
    top eigenvalue is largest.

    Returns the line heights, the support vectors (columns, zero off their
    block) and their points (d[v], a0[v]) on the boundary of W. Each height
    is raised by a slack that covers the backward error of eigh and the
    rounding of the quadratic forms in rayleigh_batch, so no evaluated point
    lies outside the line; on more than one block, also the dropped
    coupling, at most 2n eps (|cos| + |sin|) in these units (blocks).
    """
    c, s = np.cos(thetas), np.sin(thetas)
    n, m = d_unit.shape[0], thetas.size
    heights, top = np.full(m, -np.inf), np.zeros((n, m))
    for _, rows in part.groups:
        pick = rows[:, :, None], rows[:, None, :]
        w, v = np.linalg.eigh(c[:, None, None, None] * d_unit[pick]
                              + s[:, None, None, None] * a_unit[pick])
        best = np.argmax(w[:, :, -1], axis=1)
        height = w[np.arange(m), best, -1]
        cols = np.flatnonzero(height > heights)
        heights[cols] = height[cols]
        top[:, cols] = 0.0
        top[rows[best[cols]].T, cols] = v[cols, best[cols], :, -1].T
    points = np.array([np.einsum("ij,ij->j", top, d_unit @ top),
                       np.einsum("ij,ij->j", top, a_unit @ top)])
    units = ALPHA_SLACK + (2.0 if len(part.sizes) > 1 else 0.0)
    slack = units * n * np.finfo(float).eps * (np.abs(c) + np.abs(s))
    return heights + slack, top, points


def _split(theta_j: float, theta_k: float, p_j, p_k) -> float | None:
    """Next direction between neighbouring directions theta_j < theta_k: the
    normal of the chord between their support points p_j, p_k (pairs of
    floats), which finds a flat piece of W's boundary in one step; the
    mid-angle when the chord is degenerate. None when the two directions can
    no longer be split."""
    gap = (theta_k - theta_j) % (2.0 * math.pi)
    chord_s, chord_a = p_k[0] - p_j[0], p_k[1] - p_j[1]
    # np.arctan2 and math.atan2 can differ in the last bit; the support
    # directions, and with them the upper end, take numpy's rounding.
    offset = (float(np.arctan2(-chord_s, chord_a)) - theta_j) % (2.0 * math.pi)
    if (chord_s != 0.0 or chord_a != 0.0) and ALPHA_MIN_GAP < offset < gap - ALPHA_MIN_GAP:
        return theta_j + offset
    if gap > 2.0 * ALPHA_MIN_GAP:
        return theta_j + gap / 2.0
    return None


def _crossings(s0, a0, s1, a1, k) -> np.ndarray:
    """Where each segment from (s0, a0) to (s1, a1) crosses the parabola
    s^2 = k a, for each row of the column k: the segment parameters t in
    [0, 1], an array (2, rows, segments), nan where there is none. A
    segment that touches the parabola within the rounding of its quadratic
    counts as crossing it, so no crossing is lost."""
    ds, da = s1 - s0, a1 - a0
    qa, qb, qc = ds * ds, 2.0 * s0 * ds - k * da, s0 * s0 - k * a0
    qb2 = qb * qb
    disc = qb2 - 4.0 * qa * qc
    tiny = 8.0 * np.finfo(float).eps * (qb2 + 4.0 * qa * (s0 * s0 + k * np.abs(a0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.where(disc >= -tiny, np.maximum(disc, 0.0), np.nan))
        q = -(qb + np.copysign(root, qb)) / 2.0
        t = np.array([q / qa, qc / q])
        return np.where((t >= 0.0) & (t <= 1.0), t, np.nan)


def _crossing_values(s0, s1, t) -> np.ndarray:
    """p- = -s/2 at the crossings t of _crossings on the segments from s0 to
    s1, -inf where there is none."""
    return np.where(np.isnan(t), -np.inf, -(s0 + t * (s1 - s0)) / 2.0)


# The parabola s^2 = k a of the cone's boundary (last row) and its twin at
# the edge of rayleigh_pair's clamped band (first row).
_CLAMPED_ROWS = np.array([[4.0 * (1.0 - DISC_CLAMP_TOL)], [4.0]])


def _polygon_max(thetas, heights, points, sigma_d, sigma_a):
    """Largest clamped p- over the outer polygon of W cut out by the support
    lines cos(t) s + sin(t) a <= h (s, a scaled by sigma_d, sigma_a).

    p- rises with a, falls with s and has no critical point, so on each edge
    its maximum sits at a vertex or where the edge crosses the parabola
    s^2 = 4 a or its clamped twin s^2 = 4 (1 - DISC_CLAMP_TOL) a, on which
    p- = -s/2. Returns (value, i, at_vertex): the maximum lies at the vertex
    of lines i and i+1, or on the edge of line i.

    Vertex i is reached from the support point of line i, moved onto the
    line and then along it, so the rounding of nearly parallel neighbours
    shifts it along line i only, never out of it.
    """
    m = thetas.size
    nxt, prev = np.arange(1, m + 1) % m, np.arange(-1, m - 1)
    normal = np.array([np.cos(thetas), np.sin(thetas)])
    on_line = points + (heights - np.einsum("ij,ij->j", normal, points)) * normal
    along = ((heights[nxt] - np.einsum("ij,ij->j", normal[:, nxt], on_line))
             / np.sin(thetas[nxt] - thetas))
    vs = sigma_d * (on_line[0] - along * normal[1])
    va = sigma_a * (on_line[1] + along * normal[0])
    p_minus, _, feasible = _roots_from_forms(np.ones_like(vs), vs, va)
    at_vertex = np.where(feasible, p_minus, -np.inf)
    # The edge of line i runs from vertex i-1 to vertex i.
    t = _crossings(vs[prev], va[prev], vs, va, _CLAMPED_ROWS)
    on_edge = _crossing_values(vs[prev], vs, t).max(axis=(0, 1))
    i_v, i_e = int(np.argmax(at_vertex)), int(np.argmax(on_edge))
    if at_vertex[i_v] >= on_edge[i_e]:
        return float(at_vertex[i_v]), i_v, True
    return float(on_edge[i_e]), i_e, False


def _point_max(s: np.ndarray, a: np.ndarray, k: np.ndarray):
    """Largest p- over the convex hull of the points (s_i, a_i), clamped at
    the parabolas of the rows of k, with no hull built: p- has straight level
    lines (a = -p^2 - p s), so on a segment between two points it peaks at
    an end or where the segment crosses a parabola, at -s/2 <= -min(s_i,
    s_j)/2. Only pairs with an end at most -2 p of the best point's p are
    searched. Returns (value, i, j, t): the maximum is at (1 - t) of point i
    plus t of point j (i = j, t = 0 at a point)."""
    p_minus, _, feasible = _roots_from_forms(np.ones_like(s), s, a)
    at_point = np.where(feasible, p_minus, -np.inf)
    best = int(np.argmax(at_point))
    low = np.flatnonzero(s <= -2.0 * at_point[best])
    i, j = np.repeat(low, s.size), np.tile(np.arange(s.size), low.size)
    t = _crossings(s[i], a[i], s[j], a[j], k)
    on_segment = _crossing_values(s[i], s[j], t)
    if on_segment.size == 0 or at_point[best] >= on_segment.max():
        return float(at_point[best]), best, best, 0.0
    root, row, pair = np.unravel_index(np.argmax(on_segment), on_segment.shape)
    return float(on_segment[root, row, pair]), int(i[pair]), int(j[pair]), float(t[root, row, pair])


def _diagonal_alpha(pencil: QuadraticPencil) -> tuple[float, np.ndarray]:
    """(upper, candidates): alpha of a pencil whose blocks are all 1 x 1.

    W is then the convex hull of the points (d_kk, a_kk) (Horn & Johnson,
    Topics in Matrix Analysis 1.2). The candidates are the e_k and
    sqrt(1 - t) e_i + sqrt(t) e_j at the best crossing, taken half-way into
    rayleigh_pair's clamped band so that it stays there after rounding.

    upper is _point_max over the points and their copies moved by
    (-delta_s, +delta_a), raised by ALPHA_SLACK n eps relative for the
    root and crossing formulas. A point (d[x], a0[x]) / |x|^2 of
    rayleigh_batch lies within that move of the hull: delta_s is
    ALPHA_SLACK n eps d_kk (forms whose terms have one sign round
    relatively) plus twice D's largest off-diagonal absolute row sum (the
    dropped coupling); delta_a likewise. Moving a point to smaller s and
    larger a raises p- while it stays in the cone, and the segment to its
    copy holds the point where it leaves, so the 2n points bound p-.
    """
    d, a = np.diagonal(pencil.d_matrix), np.diagonal(pencil.a0_matrix)
    n, eps = d.size, np.finfo(float).eps
    rel = ALPHA_SLACK * n * eps

    def coupling(m):
        return 2.0 * float(np.max(np.abs(m).sum(axis=1) - np.abs(np.diagonal(m))))

    moved_s = d - (rel * d + coupling(pencil.d_matrix))
    moved_a = a + (rel * a + coupling(pencil.a0_matrix))
    upper, *_ = _point_max(np.concatenate([d, moved_s]), np.concatenate([a, moved_a]),
                           _CLAMPED_ROWS)
    if upper == -np.inf:
        return upper, np.empty((n, 0))
    _, i, j, t = _point_max(d, a, np.array([[4.0 * (1.0 - DISC_CLAMP_TOL / 2.0)]]))
    e = np.eye(n)
    return upper + rel * abs(upper), np.column_stack([e, np.sqrt(1.0 - t) * e[:, i]
                                                      + np.sqrt(t) * e[:, j]])


def _independent(r: np.ndarray) -> np.ndarray:
    """Columns of the QR factor r (or of each in a stack) that are
    numerically independent."""
    scale = np.maximum(1.0, np.abs(r).max(axis=(-2, -1)))
    return np.abs(np.diagonal(r, axis1=-2, axis2=-1)) > 1e-12 * scale[..., None]


def _orth(columns: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(columns)
    return q[:, _independent(r)]


def _compress(pencil: QuadraticPencil, basis: np.ndarray):
    """The compression B^T T(lam) B = lam^2 I + lam dc + ac as (dc, ac), of
    one basis or of each in a stack."""
    bt = np.swapaxes(basis, -1, -2)
    dc = bt @ pencil.d_matrix @ basis
    ac = bt @ pencil.a0_matrix @ basis
    return (dc + np.swapaxes(dc, -1, -2)) / 2.0, (ac + np.swapaxes(ac, -1, -2)) / 2.0


def _t(d: np.ndarray, a0: np.ndarray, lam) -> np.ndarray:
    """lam^2 I + lam d + a0: the one builder of T(lam), of the pencil or of
    a compression, for each lam and matrix of broadcastable stacks."""
    return lam * lam * np.eye(d.shape[-1]) + lam * d + a0


def _companion(dc: np.ndarray, ac: np.ndarray) -> np.ndarray:
    """[[0, I], [-ac, -dc]], the companion of lam^2 I + lam dc + ac, of one
    pencil or of each in a stack: the one builder of the compressed
    companions."""
    k = dc.shape[-1]
    companion = np.zeros(dc.shape[:-2] + (2 * k, 2 * k))
    companion[..., :k, k:] = np.eye(k)
    companion[..., k:, :k] = -ac
    companion[..., k:, k:] = -dc
    return companion


def _kernel_vectors(dc: np.ndarray, ac: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Columns: for each lam, the eigenvector of lam^2 I + lam dc + ac whose
    eigenvalue is smallest in modulus; for a stack of pencils (..., k, k)
    and of lams (..., m), a stack (..., k, m)."""
    w, v = np.linalg.eigh(_t(dc[..., None, :, :], ac[..., None, :, :], lams[..., None, None]))
    k = dc.shape[-1]
    v = v.reshape(-1, k, k)
    x = v[np.arange(v.shape[0]), :, np.argmin(np.abs(w), axis=-1).ravel()]
    return np.swapaxes(x.reshape(lams.shape + (k,)), -1, -2)


def _span_candidates(pencil: QuadraticPencil, spans: np.ndarray) -> np.ndarray:
    """Columns: unit vectors where p- can peak in the plane of each n x 2
    matrix of the stack spans: the points where the compressed quadratic
    form crosses into the cone, and the real eigenvectors of the compressed
    2x2 pencil (the critical points of p-). A plane of two dependent vectors
    gives none.

    With x = cos(phi) q1 + sin(phi) q2, d[x] and a0[x] are affine in
    z = exp(2i phi), so the crossings are roots of a quartic in z. They are
    taken half-way into the clamped band of rayleigh_pair, where p- = -d[x]/2.
    All planes share one QR, one eigvals (the 4x4 companions of the
    compressed pencils and of the quartics, the latter built as numpy.roots
    builds them) and one eigh; a quartic whose leading coefficient is 0
    drops its degree in numpy.roots.
    """
    q, r = np.linalg.qr(spans)
    q = q[_independent(r).all(axis=-1)]
    if q.shape[0] == 0:
        return np.empty((pencil.dim, 0))
    dc, ac = _compress(pencil, q)
    # On each plane d[x] = m_s + Re(sig z) and a0[x] = m_a + Re(rho z).
    forms = np.array([dc, ac])
    m_s, m_a = (forms[..., 0, 0] + forms[..., 1, 1]) / 2.0
    sig, rho = (forms[..., 0, 0] - forms[..., 1, 1]) / 2.0 - 1j * forms[..., 0, 1]
    k = 4.0 * (1.0 - DISC_CLAMP_TOL / 2.0)
    c0, c1 = sig * sig / 4.0, m_s * sig - k * rho / 2.0
    quartic = np.array([c0, c1, m_s * m_s + np.abs(sig) ** 2 / 2.0 - k * m_a,
                        c1.conj(), c0.conj()]).T
    degree4 = c0 != 0.0
    top = quartic[degree4]
    companions = np.zeros((top.shape[0], 4, 4), dtype=complex)
    companions[:, 0] = -top[:, 1:] / top[:, :1]
    companions[:, 1:, :3] = np.eye(3)
    planes = dc.shape[0]
    eigs = np.linalg.eigvals(np.concatenate([_companion(dc, ac), companions]))
    critical = _kernel_vectors(dc, ac, np.sort(eigs[:planes].real)[:, ::-1])
    roots, columns = iter(eigs[planes:]), []
    for basis, full, coeffs, kernel in zip(q, degree4, quartic, critical):
        phi = np.angle(next(roots) if full else np.roots(coeffs)) / 2.0
        columns.append(basis @ np.concatenate([[np.cos(phi), np.sin(phi)], kernel], axis=1))
    return np.concatenate(columns, axis=1)


def _secant(theta_j: float, theta_k: float, g_j: float, g_k: float) -> float | None:
    """Next direction between neighbouring directions theta_j < theta_k
    whose support points lie on opposite sides of the parabola (g_j, g_k
    of opposite signs, g = s^2 - 4a): the zero of g interpolated linearly
    in the angle, where the boundary of W crosses into the cone. None when
    there is no sign change or the zero is not inside the gap."""
    if not g_j * g_k < 0.0:
        return None
    gap = (theta_k - theta_j) % (2.0 * math.pi)
    offset = gap * g_j / (g_j - g_k)
    if ALPHA_MIN_GAP < offset < gap - ALPHA_MIN_GAP:
        return theta_j + offset
    return None


def alpha_brackets(pencil: QuadraticPencil) -> Iterator[AlphaResult]:
    """Bracket alpha = sup p- over the real-root cone from the joint
    numerical range W = {(d[x], a0[x]) : |x| = 1}, yielding the certified
    bracket after each outer polygon of W; the last bracket is
    compute_alpha's. A caller that needs less than the stop width closes
    the generator once a bracket decides its question.

    p- depends on x only through (d[x], a0[x]), rises with a0[x] and falls
    with d[x], so its supremum lies on the boundary of conv W (W is convex
    for n >= 3 and an ellipse for n = 2). Support lines from top
    eigenvectors cut out an outer polygon whose largest p- bounds it from
    above; each bracket's upper end is the least of these bounds so far, so
    the upper ends never increase. The lower end is
    rayleigh_pair(witness).p_minus for the best of the support vectors and
    of the maximisers in the 2-D spans of neighbouring support vectors
    where the polygon peaks (a plane already evaluated, keyed by its two
    support vectors, is skipped). New directions split the neighbours
    there: the chord normals of _split and, when the peak lies on an edge
    crossing the parabola s^2 = 4a, the _secant zero of g = s^2 - 4a
    between the neighbouring support points on opposite sides of it.
    Refinement stops once the bracket is ALPHA_RTOL wide, no direction can
    be split or ALPHA_MAX_ROUNDS rounds have run; without a witness the
    lower end is -inf. upper = -inf decides an empty cone.

    Each round offers its span candidates together with the support vectors
    of the round before in one rayleigh_batch; the support vectors still
    pending when the rounds end are offered in a last bracket.

    The work runs on the pencil's blocks. W is the convex hull of the
    blocks' ranges, so each support line is the highest of the blocks'
    (_support). When every block is 1 x 1, W is the hull of n points and
    the one bracket is _diagonal_alpha's, exact up to its stated bound.
    """
    if pencil.dim == 1:
        x = np.ones(1)
        pair = rayleigh_pair(pencil, x)
        p_minus = float(pair.p_minus) if pair.in_dstar else -np.inf
        yield AlphaResult(p_minus, p_minus, x if pair.in_dstar else None)
        return
    sigma_d, sigma_a = pencil.d_norm, pencil.a0_norm
    if sigma_d == 0.0:
        yield AlphaResult(-np.inf, -np.inf, None)
        return
    lower, upper, witness = -np.inf, np.inf, None

    def offer(columns):
        nonlocal lower, witness
        if columns.shape[1] == 0:
            return
        columns = columns / np.linalg.norm(columns, axis=0)
        p_minus, _, feasible = rayleigh_batch(pencil, columns)
        best = int(np.argmax(np.where(feasible, p_minus, -np.inf)))
        pair = rayleigh_pair(pencil, columns[:, best])
        if pair.in_dstar and pair.p_minus > lower:
            lower, witness = float(pair.p_minus), columns[:, best]

    part = pencil.partition
    if max(part.sizes) == 1:
        upper, candidates = _diagonal_alpha(pencil)
        offer(candidates)
        yield AlphaResult(lower, upper, witness)
        return
    d_unit, a_unit = pencil.d_matrix / sigma_d, pencil.a0_matrix / sigma_a

    thetas = np.linspace(0.0, 2.0 * np.pi, ALPHA_SWEEP, endpoint=False)
    heights, vectors, points = _support(d_unit, a_unit, part, thetas)
    pending = vectors
    evaluated = set()

    for _ in range(ALPHA_MAX_ROUNDS):
        peak, i, at_vertex = _polygon_max(thetas, heights, points, sigma_d, sigma_a)
        if peak == -np.inf:
            yield AlphaResult(-np.inf, -np.inf, None)
            return
        upper = min(upper, peak)
        m = thetas.size
        pairs = [(i, (i + 1) % m)] if at_vertex else [((i - 1) % m, i), (i, (i + 1) % m)]
        keys = [frozenset((vectors[:, a].tobytes(), vectors[:, b].tobytes())) for a, b in pairs]
        fresh = [pair for pair, key in zip(pairs, keys) if key not in evaluated]
        evaluated.update(keys)
        if fresh:
            pending = np.concatenate(
                [pending, _span_candidates(pencil, vectors[:, fresh].transpose(1, 0, 2))], axis=1)
        offer(pending)
        pending = np.empty((pencil.dim, 0))
        yield AlphaResult(lower, upper, witness)
        if upper - lower <= ALPHA_RTOL * abs(upper):
            return
        angles, corners = thetas.tolist(), points.T.tolist()
        new = [_split(angles[a], angles[b], corners[a], corners[b]) for a, b in pairs]
        new = [t for t in new if t is not None]
        if not at_vertex:
            g = ((sigma_d * points[0]) ** 2 - 4.0 * sigma_a * points[1]).tolist()
            for a, b in pairs:
                t = _secant(angles[a], angles[b], g[a], g[b])
                if t is not None and all(abs(t - u) > ALPHA_MIN_GAP for u in new):
                    new.append(t)
        new = np.mod(new, 2.0 * np.pi)
        if new.size == 0:
            return
        new_heights, new_vectors, new_points = _support(d_unit, a_unit, part, new)
        pending = new_vectors
        order = np.argsort(np.concatenate([thetas, new]))
        thetas = np.concatenate([thetas, new])[order]
        heights = np.concatenate([heights, new_heights])[order]
        vectors = np.hstack([vectors, new_vectors])[:, order]
        points = np.hstack([points, new_points])[:, order]
    offer(pending)
    yield AlphaResult(lower, upper, witness)


def compute_alpha(pencil: QuadraticPencil) -> AlphaResult:
    """The alpha bracket refined to ALPHA_RTOL: the last bracket of
    alpha_brackets, whose docstring gives the method."""
    for bracket in alpha_brackets(pencil):
        pass
    return bracket


def compute_scalars(pencil: QuadraticPencil) -> PencilScalars:
    """Assemble the derived constants delta, gamma, the alpha bracket and the disc radius."""
    delta, gamma = compute_delta_gamma(pencil)
    alpha = compute_alpha(pencil)
    return PencilScalars(
        delta=delta,
        gamma=gamma,
        alpha=alpha.upper,
        alpha_lower=alpha.lower,
        disc_radius=disc_radius(pencil),
    )
