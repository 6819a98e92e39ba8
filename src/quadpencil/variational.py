"""Real-eigenvalue extraction on (alpha, 0] and min-max verification.

Every real eigenvalue in (alpha, 0] is located by counts. By Sylvester's
law the number of negative eigenvalues of the symmetric matrix T(mu), mu in
(alpha, 0], is the number of pencil eigenvalues in (mu, 0], so lambda_n is
where the n-th smallest eigenvalue of T(mu) crosses zero, and p_plus of its
eigenvector is the safeguarded iteration of the max-min principle (Voss &
Werner 1982; Voss 2009). Every count is inertia_negative's, on the graded
blocks G T(mu) G, G = diag(A0)^{-1/2}; those at 0, at the midpoints between
neighbouring eigenvalues and at the lower end must step by exactly the
reported multiplicities, and each eigenvalue carries its isolating bracket.
The max-min and min-sup formulas are verified from the signs of T(mu) and
from one decomposition of T(lambda_n) on the same graded blocks, whose
spectral subspaces G carries back: on each attaining subspace span(B),
B^T T(mu) B is definite at mu = lambda_n -+ VERIFY_TOL, and p_plus at a
kernel vector of T(lambda_n) in it is lambda_n; the clauses over every
subspace and every constraint read inertia counts at the bracket ends, by
the same law.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ComputationError, InvalidArgumentError
from .pencil import (
    VERIFY_TOL,
    QuadraticPencil,
    _orth,
    _roots_from_forms,
    _t,
    rayleigh_pair,
)
from .reports import Report

# The rounding of an m x m symmetric eigensolve or product, in units of m eps
# times its scale: an eigenvalue of a graded block of T(mu) within it counts
# as zero, and a compression B^T T(mu) B must clear it to count as definite.
ROUNDING_ULPS = 4.0
# IntervalDelta.inside: the default lower end's margin right of alpha, in
# units of |alpha|, and the gate's slack left of it, in max(1, |alpha|).
ALPHA_MARGIN = 1e-6
ALPHA_GATE_SLACK = 1e-9


class InertiaCount(NamedTuple):
    negative: int
    boundary: int
    positive: int


def _graded_t(block, at: np.ndarray, solved=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """G T(at) G on the blocks `solved` of one entry of pencil.graded_blocks,
    at one shift per block, and each block's zero cut: ROUNDING_ULPS m eps of
    its graded scale at^2 |G^2| + |at| |G D G|_inf + |G A0 G|_inf."""
    _, g2, d, a, norms = block
    m = g2.shape[1]
    t = at[:, None, None] * d[solved] + a[solved]
    t[:, np.arange(m), np.arange(m)] += (at * at)[:, None] * g2[solved]
    scale = at * at * norms[0, solved] + np.abs(at) * norms[1, solved] + norms[2, solved]
    return t, ROUNDING_ULPS * m * np.finfo(float).eps * scale


def _count(w: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """(negative, boundary, positive) counts of the eigenvalue rows w of
    graded blocks against their zero cuts."""
    cut = cut[:, None]
    return np.array([np.sum(w < -cut), np.sum(np.abs(w) <= cut), np.sum(w > cut)])


def inertia_negative(pencil: QuadraticPencil, lam: float) -> InertiaCount:
    """The inertia of T(lam) (of T(lam) less its dropped coupling, blocks),
    from one stacked eigvalsh per block size of pencil.graded_blocks.
    Eigenvalues within their block's zero cut (_graded_t) go in the boundary
    slot: they flag lam as numerically a pencil eigenvalue."""
    counts = sum(_count(np.linalg.eigvalsh(t), cut) for t, cut in (
        _graded_t(block, np.full(len(block[0]), float(lam))) for block in pencil.graded_blocks))
    return InertiaCount(*counts.tolist())


def _graded_eigh(pencil: QuadraticPencil,
                 lam: float) -> tuple[InertiaCount, np.ndarray, np.ndarray]:
    """T(lam) decomposed once, one stacked eigh per block size of G T(lam) G:
    its InertiaCount, the eigenvalues in units of their block's zero cut,
    ascending (negative, boundary |w| <= 1, positive), and in that order the
    unit vectors x = G y of their eigenvectors y: x^T T x = y^T G T G y."""
    counts = np.zeros(3, dtype=int)
    w, x = np.empty(pencil.dim), np.zeros((pencil.dim, pencil.dim))
    for (slots, rows), block in zip(pencil.partition.groups, pencil.graded_blocks):
        t, cut = _graded_t(block, np.full(len(rows), float(lam)))
        e, y = np.linalg.eigh(t)
        counts += _count(e, cut)
        y *= np.sqrt(block[1])[:, :, None]
        w[slots] = e / cut[:, None]
        x[rows[:, :, None], slots[:, None, :]] = y / np.linalg.norm(y, axis=1, keepdims=True)
    order = np.argsort(w, kind="stable")
    return InertiaCount(*counts.tolist()), w[order], x[:, order]


# ---------------------------------------------------------------------------
# Search interval and results


@dataclass(frozen=True)
class IntervalDelta:
    """Half-open interval (lower, 0] on which the counting argument is valid."""

    lower: float

    def __post_init__(self):
        if not np.isfinite(self.lower) or not self.lower < 0.0:
            raise InvalidArgumentError(f"need finite lower < 0, got ({self.lower}, 0]")

    @classmethod
    def inside(cls, alpha: float, lower: float | None = None,
               d_norm: float | None = None) -> IntervalDelta:
        """The counting interval inside (alpha, 0], alpha the certified upper
        end of the bracket: lower defaults to alpha + ALPHA_MARGIN |alpha|
        and must pass within_alpha. An empty cone (alpha = -inf) defaults to
        -(d_norm + 1), d_norm = |D| (the larger of a pair's): it holds every
        real eigenvalue, a root of |x|^2 lam^2 + d[x] lam + a0[x], so
        |lam| <= d[x]/|x|^2 <= |D|."""
        if lower is None and np.isfinite(alpha):
            lower = alpha + ALPHA_MARGIN * abs(alpha)
        elif lower is None:
            if d_norm is None:
                raise InvalidArgumentError("the real-root cone is empty: give a lower end or |D|")
            lower = -(d_norm + 1.0)
        interval = cls(lower=float(lower))
        if not within_alpha(interval.lower, alpha):
            raise InvalidArgumentError(f"interval lower end {lower} lies below alpha {alpha}")
        return interval


def within_alpha(lower: float, alpha: float) -> bool:
    """The alpha gate: lower lies at most ALPHA_GATE_SLACK max(1, |alpha|)
    left of alpha; every lower end passes for an empty cone (alpha = -inf)."""
    return not lower < alpha - ALPHA_GATE_SLACK * max(1.0, abs(alpha))


@dataclass(frozen=True)
class EigenvalueDiagnostics:
    value: float
    multiplicity: int
    bracket: tuple[float, float]  # (lo, hi): inertia counts differ by multiplicity
    iterations: int               # solves taken for its curves after the one at lower
    residual: float          # smallest |eigenvalue| of G T(value) G, in its zero cuts
    semisimple: bool         # T'(value) = 2 value I + D positive definite on the kernel


@dataclass(frozen=True)
class VariationalResult:
    eigenvalues: np.ndarray  # non-increasing, repeated by multiplicity
    kappa: int
    n_found: int
    per_eigenvalue: tuple[EigenvalueDiagnostics, ...]
    interval: IntervalDelta


def _curve_zeros(pencil: QuadraticPencil,
                 lower: float) -> tuple[np.ndarray, np.ndarray, InertiaCount]:
    """The zero in (lower, 0] of each eigenvalue curve of T(mu) negative at
    lower, the count steps taken for it, one entry per curve, and the
    inertia count at lower from the first solve.

    The curves are those of G T(mu) G on pencil.graded_blocks. Each solve
    of a block at a shift mu serves all its curves: curve j (0-based)
    narrows its bracket, from (lower, 0), by the sign of the j-th
    eigenvalue e, and keeps p_plus of the j-th eigenvector (lambda at a
    kernel vector, reached quadratically) as its proposal if it lies in the
    cone and the bracket and its step |p_plus - mu| is shorter than the last
    kept one. The next solve is for the block's first unfinished curve, at
    its proposal if inside its bracket, else at the bracket's midpoint; the
    blocks of one size take one stacked eigh per step, and each holds only
    its own m x m matrices (m its size). A curve stops only when e is
    within the block's zero cut (_graded_t), or p_plus inside its bracket
    within ROUNDING_ULPS m eps of |mu|, or the bracket within that of its
    lower end: at p_plus if inside the bracket, else at mu.
    """
    zeros, steps, at_lower = [], [], 0
    for block in pencil.graded_blocks:
        rows, g2, d, a, _ = block
        rounding = ROUNDING_ULPS * rows.shape[1] * np.finfo(float).eps

        def solve(solved, at):
            """Eigenvalues and zero cuts of the solved blocks' graded T(at), and
            the forms (|G x|^2, x^T G D G x, x^T G A0 G x) of its eigenvectors x."""
            t, cut = _graded_t(block, at, solved)
            w, v = np.linalg.eigh(t)
            forms = (np.einsum("bi,bik->bk", g2[solved], v * v),
                     np.einsum("bik,bik->bk", v, d[solved] @ v),
                     np.einsum("bik,bik->bk", v, a[solved] @ v))
            return w, forms, cut

        solved = np.arange(len(rows))
        at = np.full(len(rows), lower)
        w, forms, cut = solve(solved, at)
        at_lower = at_lower + _count(w, cut)
        count = np.sum(w < -cut[:, None], axis=1)
        blk = np.repeat(solved, count)
        j = np.arange(blk.size) - np.repeat(np.cumsum(count) - count, count)
        lo = np.full(blk.size, lower)
        hi = np.zeros(blk.size)
        proposal = np.full(blk.size, np.nan)
        last = np.full(blk.size, np.inf)
        zero = np.empty(blk.size)
        taken = np.zeros(blk.size, dtype=int)
        active = np.arange(blk.size)
        while active.size:
            row = np.searchsorted(solved, blk[active])
            k = j[active]
            mu = at[row]
            e = w[row, k]
            below = e < 0.0
            lo_a = np.where(below, np.maximum(lo[active], mu), lo[active])
            hi_a = np.where(below, hi[active], np.minimum(hi[active], mu))
            _, p, cone = _roots_from_forms(forms[0][row, k], forms[1][row, k], forms[2][row, k])
            inside = cone & (lo_a < p) & (p < hi_a)
            step = np.abs(p - mu)
            met = np.abs(e) <= cut[row]
            met |= inside & (step <= rounding * np.abs(mu))
            met |= hi_a - lo_a <= rounding * np.abs(lo_a)
            zero[active[met]] = np.where(inside, p, mu)[met]
            kept = inside & (step < last[active])
            lo[active] = lo_a
            hi[active] = hi_a
            proposal[active[kept]] = p[kept]
            last[active[kept]] = step[kept]
            active = active[~met]
            if active.size:
                first = np.ones(active.size, dtype=bool)
                first[1:] = blk[active[1:]] != blk[active[:-1]]
                leads = active[first]
                solved = blk[leads]
                guess = proposal[leads]
                midpoint = 0.5 * (lo[leads] + hi[leads])
                at = np.where((lo[leads] < guess) & (guess < hi[leads]), guess, midpoint)
                w, forms, cut = solve(solved, at)
                taken[leads] += 1
        zeros.append(zero)
        steps.append(taken)
    return np.concatenate(zeros), np.concatenate(steps), InertiaCount(*at_lower.tolist())


def locate_real_eigenvalues(
    pencil: QuadraticPencil,
    interval: IntervalDelta,
    tol: float,
) -> VariationalResult:
    """All pencil eigenvalues in (interval.lower, 0] with multiplicities,
    located by counts.

    Each block of the pencil's partition holds as many as T(lower) has
    negative eigenvalues on it, each the zero of an eigenvalue curve
    (_curve_zeros). Neighbouring values closer than `tol` times the smaller
    of 1 and their larger modulus (the caller's resolution: absolute above
    modulus 1, relative below), or whose midpoint is numerically an
    eigenvalue (the curves of a multiple eigenvalue meet there), are one
    entry whose multiplicity is the sum and whose value is their mean. Each entry is certified by inertia counts at its separators
    (0, the midpoints between neighbouring entries, lower): they must differ
    by its multiplicity, and every separator but the open end lower lies off
    the spectrum; a failed certificate raises ComputationError with the
    bracket and its counts.

    Scope: counts count eigenvalues only inside (alpha, 0], where every
    interval from IntervalDelta.inside lies (up to ALPHA_GATE_SLACK). Below
    alpha a root need not move the count (a zero of even order moves none),
    so a wider interval is searched only as far as the count at lower shows.
    """
    if tol <= 0.0:
        raise InvalidArgumentError("tol must be positive")

    lower = interval.lower
    values, steps, at_lower = _curve_zeros(pencil, lower)
    order = np.argsort(-values, kind="stable")
    entries = [(float(values[i]), int(steps[i]), 1) for i in order]
    cuts = [0.0]
    cuts += [0.5 * (upper[0] + below[0]) for upper, below in zip(entries, entries[1:])]
    counts = [inertia_negative(pencil, cut) for cut in cuts] + [at_lower]
    cuts.append(lower)
    for k in reversed(range(1, len(entries))):
        (v_hi, s_hi, m_hi), (v_lo, s_lo, m_lo) = entries[k - 1], entries[k]
        if counts[k].boundary or v_hi - v_lo < tol * min(1.0, abs(v_lo)):
            mult = m_hi + m_lo
            entries[k - 1] = ((m_hi * v_hi + m_lo * v_lo) / mult, s_hi + s_lo, mult)
            del entries[k], cuts[k], counts[k]
    for k, mult in enumerate([e[2] for e in entries] or [0]):
        c_hi, c_lo = counts[k], counts[k + 1]
        if c_hi.boundary or abs(c_lo.negative - c_hi.negative) != mult:
            raise ComputationError(
                "inertia counts do not certify the eigenvalue bracket",
                bracket=(cuts[k + 1], cuts[k]), multiplicity=mult,
                counts=(c_lo.negative, c_hi.negative),
                boundary=(c_lo.boundary, c_hi.boundary),
            )

    # In (alpha, 0], p_minus(x) <= alpha < lam = p_plus(x) at a kernel vector
    # x, so T'(lam) = 2 lam I + D is positive definite on the kernel.
    diags = []
    for k, (lam, taken, mult) in enumerate(entries):
        _, w, x = _graded_eigh(pencil, lam)
        kernel = x[:, np.argsort(np.abs(w))[:mult]]
        derivative = _margin(kernel, 2.0 * lam * np.eye(pencil.dim) + pencil.d_matrix,
                             2.0 * abs(lam) * np.eye(pencil.dim) + np.abs(pencil.d_matrix), 1)
        diags.append(EigenvalueDiagnostics(
            value=lam, multiplicity=mult, bracket=(cuts[k + 1], cuts[k]), iterations=taken,
            residual=float(np.min(np.abs(w))), semisimple=derivative > 0.0))
    expanded = np.array([d.value for d in diags for _ in range(d.multiplicity)], dtype=float)
    return VariationalResult(eigenvalues=expanded, kappa=counts[0].negative,
                             n_found=int(expanded.size), per_eigenvalue=tuple(diags),
                             interval=interval)


# ---------------------------------------------------------------------------
# Subspace verification of the max-min / min-sup formulas


def _margin(basis: np.ndarray, form: np.ndarray, bound: np.ndarray, sign: int) -> float:
    """Smallest eigenvalue of sign B^T F B - r |B|^T S |B|, S >= |F|
    entrywise: positive when F is definite of that sign (-1, +1) on
    span(basis) beyond a first-order, not proven, bound of the rounding of
    its compression; r = ROUNDING_ULPS n eps, n the basis vectors' length."""
    a = np.abs(basis)
    scale = a.T @ bound @ a
    compression = basis.T @ form @ basis
    rounding = ROUNDING_ULPS * basis.shape[0] * np.finfo(float).eps
    return float(np.linalg.eigvalsh(sign * compression - rounding * scale)[0])


def _definite_margin(pencil: QuadraticPencil, basis: np.ndarray, mu: float, sign: int) -> float:
    """_margin of T(mu) on span(basis), S(mu) = mu^2 I + |mu| |D| + |A0|."""
    return _margin(basis, pencil.t_matrix(mu),
                   _t(np.abs(pencil.d_matrix), np.abs(pencil.a0_matrix), abs(mu)), sign)


def _attainer(pencil: QuadraticPencil, lam: float, basis: np.ndarray, witness: np.ndarray,
              sign: int) -> tuple[bool, dict]:
    """(ok, data) of the check that span(basis) attains min (sign -1) or sup
    (+1) p_plus = lam, witness a kernel vector of T(lam) in it (verify_minmax)."""
    mu = lam + sign * VERIFY_TOL
    margin = _definite_margin(pencil, basis, mu, sign)
    p_plus = rayleigh_pair(pencil, witness).p_plus
    return (margin > 0.0 and abs(p_plus - lam) <= VERIFY_TOL,
            {"mu": mu, "margin": margin, "witness": witness.copy(), "p_plus": p_plus})


def verify_minmax(pencil: QuadraticPencil, result: VariationalResult) -> Report:
    """Executable form of the max-min and min-sup eigenvalue formulas.

    For each n <= N: (a) the span of the first n pencil eigenvectors and the
    spectral subspace of the n smallest eigenvalues of T(lambda_n) (the
    Courant-Fischer subspace) both achieve min p_plus = lambda_n; (b) no
    n-dimensional subspace pushes min p_plus above lambda_n; (c) the dual
    form: the supremum of p_plus on the spectral subspace of the others, the
    orthogonal complement of n - 1 vectors, equals lambda_n, and orthogonal
    to any n - 1 vectors it is >= lambda_n. For n = N+1 <= dim, no subspace
    has min p_plus above interval.lower (the no-more-eigenvalues clause).

    Every clause rests on the scalar quadratic
    t(mu)[x] = mu^2 |x|^2 + mu d[x] + a0[x] at real mu. t(mu)[x] < 0 puts mu
    strictly between its two real roots, so p_plus(x) > mu. For mu > alpha,
    t(mu)[x] > 0 gives p_plus(x) < mu or x outside the cone, because
    p_minus(x) <= alpha < mu.

    Each entry's T(lambda) is decomposed once (_graded_eigh), one at a time:
    its count gives the kernel dimension (boundary) and the nonpositive one
    (negative + boundary); of its vectors x = G y, those of smallest
    |eigenvalue| are the pencil eigenvectors, the first n span (a)'s
    spectral subspace and the others (c)'s, orthogonal to G^{-1} y of the
    first n - 1.

    The attainers of (a) and (c) on span(B): B^T T(mu) B negative definite
    at mu = lambda_n - VERIFY_TOL gives min p_plus >= mu, and positive
    definite at mu = lambda_n + VERIFY_TOL (> alpha) gives sup p_plus <= mu
    (decided by _definite_margin: the data's margin must be positive). The
    other side of each equality is p_plus at a witness x in span(B) with
    T(lambda_n) x = 0, which is lambda_n since p_minus(x) <= alpha <
    lambda_n: the check asks |p_plus(x) - lambda_n| <= VERIFY_TOL. The
    witness is the n-th pencil eigenvector, or the spectral subspace's
    vector of smallest |eigenvalue|.

    The clauses over every subspace read inertia counts. For mu in
    (alpha, 0], by the same fact, t(mu)[x] < 0 exactly when p_plus(x) > mu:
    by compactness and Courant-Fischer, an n-dimensional subspace with
    min p_plus > mu exists exactly when T(mu) has at least n negative
    eigenvalues (Sylvester's law), and then their span meets V^perp for
    every (n-1)-dimensional V, at a nonzero x with p_plus(x) > mu. Locate's
    certificate leaves no other eigenvalue in lambda_n's bracket (lo, hi),
    and every eigenvalue above alpha raises the count, so the count is
    constant on [lo, lambda_n) and on (lambda_n, hi]. Hence (b) holds when
    inertia_negative(hi) has at most n - 1 negative and no boundary
    eigenvalues (a subspace with min p_plus > lambda_n would beat every mu
    in (lambda_n, hi]); (c)'s clause over every V when inertia_negative(lo)
    has at least n (the sup over V^perp then exceeds every mu in
    [lo, lambda_n)); and the exhaustion clause when the count at
    interval.lower is at most N. The counts are taken here, not read from
    locate: the result checked may be any claim.
    """
    report = Report("minmax_verification")
    lower = result.interval.lower
    # One count per distinct bracket end (neighbours share one) and lower.
    counts = {mu: inertia_negative(pencil, mu) for mu in {lower, *(
        mu for diag in result.per_eigenvalue for mu in diag.bracket)}}

    # The kernel vectors of the entries, in order: the pencil eigenvectors.
    kernels, stop = np.zeros((pencil.dim, result.n_found)), 0
    for diag in result.per_eigenvalue:
        start, stop = stop, stop + diag.multiplicity
        at_lam, w, x = _graded_eigh(pencil, diag.value)
        kernel_dim, dimension = at_lam.boundary, at_lam.negative + at_lam.boundary
        report.add("kernel_dimension_matches_multiplicity", kernel_dim == diag.multiplicity,
                   eigenvalue=diag.value, kernel_dim=kernel_dim, multiplicity=diag.multiplicity)
        kernels[:, start:stop] = x[:, np.argsort(np.abs(w))[:diag.multiplicity]]
        lo, hi = diag.bracket
        for n in range(start + 1, stop + 1):
            lam_n = float(result.eigenvalues[n - 1])

            ok, data = _attainer(pencil, lam_n, _orth(kernels[:, :n]), kernels[:, n - 1], -1)
            report.add("achievement_eigenvector_span", ok, n=n, eigenvalue=lam_n, **data)

            expected = int(np.sum(result.eigenvalues >= lam_n))
            report.add("nonpositive_subspace_dimension", dimension == expected,
                       n=n, dimension=dimension, expected=expected)
            ok, data = _attainer(pencil, lam_n, x[:, :n], x[:, np.argmin(np.abs(w[:n]))], -1)
            report.add("achievement_spectral_subspace", ok, n=n, eigenvalue=lam_n, **data)

            count = counts[hi]
            report.add("maxmin_upper_by_inertia", count.negative <= n - 1 and count.boundary == 0,
                       n=n, eigenvalue=lam_n, mu=hi, negative_count=count.negative)

            ok, data = _attainer(pencil, lam_n, x[:, n - 1:],
                                 x[:, n - 1 + np.argmin(np.abs(w[n - 1:]))], 1)
            report.add("dual_spectral_subspace", ok, n=n, eigenvalue=lam_n,
                       constraint_dim=n - 1, **data)

            count = counts[lo].negative
            report.add("minsup_lower_by_inertia", count >= n,
                       n=n, eigenvalue=lam_n, mu=lo, negative_count=count)

    if result.n_found < pencil.dim:
        count = counts[lower].negative
        report.add("exhaustion_above_n", count <= result.n_found,
                   n=result.n_found + 1, mu=lower, negative_count=count)
    return report
