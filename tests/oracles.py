"""Independent reference computations used to freeze expected test values.

Every oracle here avoids the code paths it checks: scalar roots come from
the companion matrix (numpy.roots), pencil spectra from the interpolated
determinant polynomial, extremum searches from dense direction grids (where
a grid searches over p_plus, rayleigh_batch evaluates it), semisimplicity
from kernel ranks of the companion matrix, beam entries from adaptive
quadrature, closed-form cosine moments and (for sampled profiles) the n x K
cosine-matrix product, clusters from all-pairs adjacency, inertia counts
from symmetric elimination in exact rational arithmetic, evolution
references from an explicit modal decomposition
and from the trapezoidal scheme stepped one lu_solve at a time (with the
forward-error bounds that separate it from simulate's propagator powers), the
max-min clauses that the min-max check decides by inertia counts probed on
random subspaces, one at a time,
the min-sup clause that it decides by inertia counts probed on given
constraints, the alpha search's cone crossings as sign changes on an angle
grid of each plane, the sup of p_plus on a subspace from one kernel-vector
eigh per compressed eigenvalue, its min by bisection on the top eigenvalue of the
compressed T, and the simulate CSV formatted one row at a time;
the companion's closed-form inverse assembled as one 2n x 2n matrix, which
structural_report only multiplies by block by block;
alpha of the constant beam from its closed form, and the random pencil built
twice, as the seeded ensemble was built before its damping scale was decided
first.
"""
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.integrate import quad

from quadpencil import QuadraticPencil, compute_delta_gamma, rayleigh_batch, rayleigh_pair
from quadpencil.config import random_pencil
from quadpencil.pencil import DISC_CLAMP_TOL
from quadpencil.variational import InertiaCount


def quad_roots(a, b, c):
    """Real roots of a x^2 + b x + c via the companion matrix, sorted."""
    roots = np.roots([a, b, c])
    real = np.sort(roots[np.abs(roots.imag) < 1e-12].real)
    return real


def det_poly_eigenvalues(a0, d):
    """Spectrum of the pencil as roots of the interpolated det polynomial.

    det(z^2 I + z D + A0) is a monic polynomial of degree 2n; its values on
    a scaled root-of-unity circle determine the coefficients exactly, and
    numpy.roots supplies the companion-matrix roots.
    """
    a0 = np.asarray(a0, float)
    d = np.asarray(d, float)
    n = a0.shape[0]
    deg = 2 * n
    count = deg + 1
    rho = 1.0 + np.sqrt(np.linalg.norm(a0, 2)) + np.linalg.norm(d, 2)
    zs = rho * np.exp(2j * np.pi * np.arange(count) / count)
    vals = np.array([np.linalg.det(z * z * np.eye(n) + z * d + a0) for z in zs])
    coeffs = np.fft.fft(vals) / count / rho ** np.arange(count)
    assert abs(coeffs[-1] - 1.0) < 1e-6, "determinant polynomial must be monic"
    return np.roots(coeffs[::-1])


def p_minus_grid_2d(a0, d, points=400001):
    """Dense direction grid for sup p_minus in two dimensions.

    Underestimates the supremum near the cone boundary (square-root cusp);
    use as a lower reference only.
    """
    theta = np.linspace(0.0, np.pi, points)
    x = np.vstack([np.cos(theta), np.sin(theta)])
    a = np.ones(points)
    b = np.einsum("ij,ij->j", x, np.asarray(d) @ x)
    c = np.einsum("ij,ij->j", x, np.asarray(a0) @ x)
    disc = b * b - 4.0 * a * c
    ok = disc >= 0.0
    if not np.any(ok):
        return -np.inf
    return float(np.max((-b[ok] - np.sqrt(disc[ok])) / (2.0 * a[ok])))


def p_plus_on_plane(pencil, basis, points=20001):
    """p_plus on a dense angle grid of the unit circle of span(basis), two
    orthonormal columns; -inf where the direction has no real roots."""
    theta = np.linspace(0.0, np.pi, points)
    _, p_plus, _ = rayleigh_batch(pencil, basis @ np.vstack([np.cos(theta), np.sin(theta)]))
    return p_plus


def semisimplicity_check(system, lam, tol=1e-8):
    """True iff (A - lam) and (A - lam)^2 have equal numerical kernel
    dimension, A the companion matrix of the linearized system: the
    reference for the library's test on the derivative form of T."""
    m = system.a_matrix - lam * np.eye(2 * system.dim)

    def nullity(x):
        s = np.linalg.svd(x, compute_uv=False)
        return int(np.sum(s < tol * s[0]))

    return nullity(m) == nullity(m @ m)


def real_eigenvalues_in(spectrum, lower, upper=0.0):
    """Cluster representatives of a full_spectrum result that are real
    (within its cluster tolerance) and lie in (lower, upper], with their
    algebraic multiplicities, in descending order."""
    out = []
    for lam, mult in zip(spectrum.eigenvalues, spectrum.algebraic_multiplicities):
        if abs(lam.imag) <= spectrum.cluster_tolerance and lower < lam.real <= upper:
            out.append((float(lam.real), int(mult)))
    out.sort(key=lambda t: -t[0])
    return out


def resolvent_regions_loop(values, gamma, radius, margin=1e-9):
    """(disc_ok, worst_depth, triangle_ok, violations): one eigenvalue at a
    time, the disc test and the wedge test of resolvent_region_check, with
    eigenvalues within eps of an exceptional point excused."""
    inv_g = 1.0 / gamma
    exceptional = [complex(-inv_g, 0.0), complex(-inv_g, inv_g), complex(-inv_g, -inv_g)]
    eps = margin * max(1.0, inv_g)
    disc_ok, worst = True, 0.0
    for lam in values:
        depth = radius - abs(lam)
        if depth > margin * radius:
            disc_ok, worst = False, max(worst, depth)
    violations = []
    for lam in values:
        if min(abs(lam - e) for e in exceptional) <= eps:
            continue
        if -inv_g + eps <= lam.real <= -eps and abs(lam.imag) <= -lam.real - eps:
            violations.append({
                "eigenvalue": complex(lam),
                "distance_to_vertical_edge": float(lam.real + inv_g),
                "distance_to_wedge_edge": float(-lam.real - abs(lam.imag)),
            })
    return disc_ok, worst, not violations, violations


def damping_entry_adaptive(profile, m, n):
    """Beam damping matrix entry by adaptive quadrature."""
    val, err = quad(
        lambda r: profile(r) * np.cos(m * np.pi * r) * np.cos(n * np.pi * r),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    assert err < 1e-10
    return 2.0 * m * n * np.pi**2 * val


def damping_moments_closed_form(name, params, n):
    """c_k = integral of d(r) cos(k pi r) over [0, 1], k = 0..2n, in closed
    form for the constant, affine and four_plus_sin profiles."""
    k = np.arange(2 * n + 1)
    c = np.zeros(2 * n + 1)
    if name == "constant":
        c[0] = params["value"]
    elif name == "affine":
        a, b = params["intercept"], params.get("slope", 0.0)
        c[0] = a + b / 2.0
        c[1:] = b * ((-1.0) ** k[1:] - 1.0) / (k[1:] * np.pi) ** 2
    elif name == "four_plus_sin":
        even = k[k % 2 == 0].astype(float)
        c[k % 2 == 0] = 2.0 / (np.pi * (1.0 - even**2))
        c[0] += 4.0
    else:
        raise ValueError(f"no closed form for profile {name!r}")
    return c


def damping_from_moments(c, n):
    """D[m, j] = 2 m j pi^2 integral d cos(m pi r) cos(j pi r), entry by
    entry from the moments by cos a cos b = (cos(a - b) + cos(a + b)) / 2."""
    d = np.empty((n, n))
    for m in range(1, n + 1):
        for j in range(1, n + 1):
            d[m - 1, j - 1] = m * j * np.pi**2 * (c[abs(m - j)] + c[m + j])
    return d


def damping_matrix_gemm(cfg, panel_order=16):
    """Beam damping matrix by the n x K cosine-matrix product: the same
    composite Gauss-Legendre rule (at least points_per_mode_pair * 2 n
    nodes, panel_order per panel), every node's cos(m pi r) formed
    directly, and D = 2 pi^2 m n C W C^T symmetrized."""
    n = cfg.n_modes
    total = max(32, cfg.quadrature.points_per_mode_pair * 2 * n)
    panels = max(1, int(np.ceil(total / panel_order)))
    base_x, base_w = np.polynomial.legendre.leggauss(panel_order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    modes = np.arange(1, n + 1)
    cosines = np.cos(np.outer(modes, np.pi * nodes))
    integrals = (cosines * (weights * cfg.damping(nodes))[None, :]) @ cosines.T
    d = 2.0 * np.outer(modes, modes) * np.pi**2 * integrals
    return (d + d.T) / 2.0


def single_linkage_groups(values, tol):
    """Connected components of the graph joining every pair of points
    within tol, from the dense all-pairs adjacency closed by repeated
    boolean products; ascending index tuples, sorted."""
    values = np.asarray(values)
    near = np.abs(values[:, None] - values[None, :]) <= tol
    reach = near.copy()
    while True:
        grown = (reach.astype(int) @ near.astype(int)) > 0
        if np.array_equal(grown, reach):
            break
        reach = grown
    return sorted({tuple(int(i) for i in np.flatnonzero(row)) for row in reach})


def dense_cluster_labels(values, tol):
    """The clustering that blocks._cluster_labels computes, from the dense
    N x N graph joining every pair within tol (np.abs(w_i - w_j) <= tol)
    and its components by breadth-first search: one label per point, the
    clusters numbered in the order of their smallest index."""
    values = np.asarray(values)
    if values.size == 0:
        return np.empty(0, dtype=int)
    return components_bfs(np.abs(values[:, None] - values) <= tol)


def dense_eigenvectors(eig):
    """The N x N eigenvector matrix of a linearization.BlockEig: column k is
    the eigenvector of eig.values[k], zero off its block."""
    size = eig.values.size
    vectors = np.zeros((size, size), np.result_type(*(v for *_, v in eig.pairs)))
    for slots, rows, v in eig.pairs:
        vectors[rows[:, :, None], slots[:, None, :]] = v
    return vectors


def components_bfs(adjacency):
    """Connected components of a symmetric boolean adjacency matrix by
    breadth-first search from each unvisited vertex in index order: one
    label per vertex, numbered in the order of each component's smallest
    vertex."""
    adjacency = np.asarray(adjacency, dtype=bool)
    labels = [-1] * adjacency.shape[0]
    count = 0
    for start in range(len(labels)):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = [start]
        while queue:
            i = queue.pop(0)
            for j in np.flatnonzero(adjacency[i]):
                if labels[j] < 0:
                    labels[j] = count
                    queue.append(int(j))
        count += 1
    return np.array(labels, dtype=int)


def exact_inertia(pencil, mu):
    """variational.InertiaCount of T(mu) = mu^2 I + mu D + A0, formed and
    decomposed exactly in fractions.Fraction from the float entries of A0,
    D and mu, block by block on the pencil's partition. Symmetric
    elimination takes a nonzero diagonal pivot where there is one, else a
    2 x 2 pivot [[0, b], [b, 0]] (one negative and one positive
    eigenvalue); a zero remainder is the boundary. By Sylvester's law the
    pivots' signs and the remainder are the block's inertia."""
    mu = Fraction(mu)
    counts = [0, 0, 0]
    for _, group in pencil.partition.groups:
        for rows in group.tolist():
            t = [[mu * mu * (i == j) + mu * Fraction(pencil.d_matrix[i, j])
                  + Fraction(pencil.a0_matrix[i, j]) for j in rows] for i in rows]
            while t:
                size = len(t)
                k = next((i for i in range(size) if t[i][i]), None)
                if k is not None:
                    counts[0 if t[k][k] < 0 else 2] += 1
                    rest = [i for i in range(size) if i != k]
                    t = [[t[i][j] - t[i][k] * t[k][j] / t[k][k] for j in rest] for i in rest]
                    continue
                pair = next(((i, j) for i in range(size) for j in range(i) if t[i][j]), None)
                if pair is None:
                    counts[1] += size
                    break
                p, q = pair
                counts[0] += 1
                counts[2] += 1
                rest = [i for i in range(size) if i not in pair]
                t = [[t[i][j] - (t[i][p] * t[q][j] + t[i][q] * t[p][j]) / t[p][q] for j in rest]
                     for i in rest]
    return InertiaCount(*counts)


def modal_energy(a_matrix, u0, times):
    """Exact squared-norm history of u' = A u from the eigendecomposition."""
    w, v = np.linalg.eig(a_matrix)
    coeff = np.linalg.solve(v, u0)
    energies = []
    for t in times:
        u = v @ (np.exp(w * t) * coeff)
        energies.append(float(np.real(np.vdot(u, u))))
    return np.array(energies)


def trapezoid_reference(pencil, z0, w0, steps, dt, snapshot_stride=0):
    """(energies, dissipation, zs, ws) of `steps` trapezoidal steps, each a
    scipy lu_solve of (I - dt/2 A) u_{k+1} = (I + dt/2 A) u_k whose energy,
    dissipation rate and (every snapshot_stride-th) state are recorded right
    after the step; zs and ws are None when snapshot_stride is 0."""
    n = pencil.dim
    s, s_inv = pencil.a0_sqrt_blocks.dense(), pencil.a0_inv_sqrt_blocks.dense()
    a = np.block([[np.zeros((n, n)), s], [-s, -pencil.d_matrix]])
    eye = np.eye(2 * n)
    lu = scipy.linalg.lu_factor(eye - (dt / 2.0) * a)
    forward = eye + (dt / 2.0) * a
    energies = np.empty(steps + 1)
    dissipation = np.empty(steps + 1)
    zs, ws = [], []

    def record(k, u_now):
        energies[k] = float(u_now @ u_now)
        w = u_now[n:]
        dissipation[k] = 2.0 * float(w @ (pencil.d_matrix @ w))
        if snapshot_stride > 0 and k % snapshot_stride == 0:
            zs.append(s_inv @ u_now[:n])
            ws.append(w.copy())

    u = np.concatenate([s @ np.asarray(z0, float), np.asarray(w0, float)])
    record(0, u)
    for k in range(1, steps + 1):
        u = scipy.linalg.lu_solve(lu, forward @ u)
        record(k, u)
    if snapshot_stride > 0:
        return energies, dissipation, np.array(zs), np.array(ws)
    return energies, dissipation, None, None


def trapezoid_error_bounds(pencil, z0, w0, steps, dt):
    """(state, energy, dissipation): bounds for k = 0..steps on how far
    simulate's trace may lie from trapezoid_reference's.

    simulate's forward-error bound is b_k = (k+1) 2n eps cond2(I - dt/2 A)
    |u_0| on the whitened states u = (A0^{1/2} z, w); c_k = b_k + b_0 adds
    each side's own rounding of the products below. With |.| on a matrix
    the 2-norm of its entrywise absolute value: |u_k - u_k^ref| <= c_k,
    |E_k - E_k^ref| <= c_k (2 |u_0| + c_k) for E = |u|^2, and
    |d_k - d_k^ref| <= 2 |D| c_k (2 |u_0| + c_k) for d = 2 w^T D w.
    """
    n = pencil.dim
    s = pencil.a0_sqrt_blocks.dense()
    a = np.block([[np.zeros((n, n)), s], [-s, -pencil.d_matrix]])
    u0 = np.linalg.norm(np.concatenate([s @ np.asarray(z0, float), np.asarray(w0, float)]))
    cond = np.linalg.cond(np.eye(2 * n) - (dt / 2.0) * a)
    b = (np.arange(steps + 1) + 1) * 2 * n * np.finfo(float).eps * cond * u0
    c = b + b[0]
    energy = c * (2.0 * u0 + c)
    return c, energy, 2.0 * np.linalg.norm(np.abs(pencil.d_matrix), 2) * energy


def det_poly_real_roots_mp(a0, d, digits=50):
    """Real roots of det(z^2 I + z D + A0) at `digits` significant digits,
    repeated by multiplicity and sorted descending.

    The entries z^2 delta_ij + z d_ij + a0_ij are coefficient lists of exact
    binary-to-decimal conversions; the Leibniz expansion over all n!
    permutations (n <= 4 here) gives the determinant polynomial, and
    mpmath.polyroots its roots. A multiple root splits by about the square
    root of the working precision, so a root is real when its imaginary part
    is below 10^(-digits/3) of its size.
    """
    import itertools

    import mpmath

    a0 = np.asarray(a0, float)
    d = np.asarray(d, float)
    n = a0.shape[0]
    with mpmath.workdps(digits):
        def entry(i, j):
            return [mpmath.mpf(a0[i, j]), mpmath.mpf(d[i, j]), mpmath.mpf(int(i == j))]

        def times(p, q):
            out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
            return out

        det = [mpmath.mpf(0)] * (2 * n + 1)
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            term = [mpmath.mpf(sign)]
            for i in range(n):
                term = times(term, entry(i, perm[i]))
            det = [c + t for c, t in zip(det, term)]
        roots = mpmath.polyroots(det[::-1], maxsteps=400, extraprec=4 * digits)
        cut = mpmath.mpf(10) ** (-digits // 3)
        real = [float(r.real) for r in roots if abs(mpmath.im(r)) <= cut * max(1, abs(r))]
    return sorted(real, reverse=True)


def random_minima_loop(pencil, rng, dim, count, bound, tol):
    """The clause min p_plus <= bound on `count` random dim-dimensional
    subspaces, one subspace at a time: a random probe of the max-min clauses
    that verify_minmax decides by inertia counts. Each subspace is one draw
    from rng and one QR; a rank-deficient draw is skipped but counted.
    p_plus at the top eigenvector of B^T T(bound) B (rayleigh_pair) decides
    it, and min_p_plus_reference supplies the minimum where that value
    exceeds the bound by more than tol.
    """
    excess = []
    for _ in range(count):
        q, r = np.linalg.qr(rng.standard_normal((pencil.dim, dim)))
        if not np.all(np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())):
            continue
        dc = q.T @ pencil.d_matrix @ q
        ac = q.T @ pencil.a0_matrix @ q
        t = bound * bound * np.eye(dim) + bound * (dc + dc.T) / 2.0 + (ac + ac.T) / 2.0
        value = rayleigh_pair(pencil, q @ np.linalg.eigh(t)[1][:, -1]).p_plus
        if value - bound > tol:
            value = np.fmin(value, min_p_plus_reference(pencil, q)[0])
        excess.append(value - bound)
    excess = np.array(excess)
    return {
        "subspaces": count,
        "violations": int(np.sum(excess > tol)),
        "worst_excess": float(np.max(excess[excess > tol], initial=-np.inf)),
    }


def pencil_eigenvectors(pencil, result):
    """Columns: at each located eigenvalue, its multiplicity eigenvectors of
    the whole T(value) (one np.linalg.eigh) smallest in |eigenvalue|, in
    the order of result.eigenvalues."""
    columns = [np.zeros((pencil.dim, 0))]
    for diag in result.per_eigenvalue:
        w, v = np.linalg.eigh(pencil.t_matrix(diag.value))
        columns.append(v[:, np.argsort(np.abs(w))[:diag.multiplicity]])
    return np.column_stack(columns)


def constrained_sups(pencil, constraints):
    """The min-sup clause probed one constraint at a time: for each n x k
    matrix V, sup_p_plus_reference on the orthogonal complement of its
    columns, an orthonormal basis from scipy.linalg.null_space."""
    return [sup_p_plus_reference(pencil, scipy.linalg.null_space(v.T)) for v in constraints]


def grid_cone_crossings(pencil, u, v, steps=4096):
    """The cone crossings of the plane span(u, v) on an angle grid: the
    reference for pencil._span_candidates. With q an orthonormal basis of
    the plane and x(phi) = cos(phi) q1 + sin(phi) q2, the sign changes of
    g = d[x]^2 - k |x|^2 a0[x], k = 4 (1 - DISC_CLAMP_TOL / 2), between
    neighbouring points of the grid phi_j = j pi / steps (x(phi + pi) =
    -x(phi), so the grid closes on itself), with the forms taken on the
    whole vectors. Returns the unit vectors x at the middle of each grid
    interval with a sign change, and the grid step."""
    q = np.linalg.qr(np.column_stack([u, v]))[0]
    phi = np.arange(steps + 1) * (np.pi / steps)
    x = q @ np.array([np.cos(phi), np.sin(phi)])
    k = 4.0 * (1.0 - DISC_CLAMP_TOL / 2.0)
    g = (np.einsum("ij,ij->j", x, pencil.d_matrix @ x) ** 2
         - k * np.einsum("ij,ij->j", x, x) * np.einsum("ij,ij->j", x, pencil.a0_matrix @ x))
    changes = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
    middle = phi[changes] + np.pi / (2 * steps)
    return q @ np.array([np.cos(middle), np.sin(middle)]), np.pi / steps


def sup_p_plus_reference(pencil, basis):
    """The supremum of p_plus over the unit sphere of span(basis), from the
    proposals of the compressed pencil one eigenvalue at a time: the
    eigenvalues of the compressed companion (np.block, eigvals), and at the
    real part of each the eigenvector of the compressed T of smallest
    |eigenvalue| (one eigh each), evaluated by rayleigh_pair; -inf when no
    proposal lies in the cone."""
    k = basis.shape[1]
    dc = basis.T @ pencil.d_matrix @ basis
    ac = basis.T @ pencil.a0_matrix @ basis
    dc, ac = (dc + dc.T) / 2.0, (ac + ac.T) / 2.0
    companion = np.block([[np.zeros((k, k)), np.eye(k)], [-ac, -dc]])
    best = -np.inf
    for lam in np.linalg.eigvals(companion).real:
        w, vecs = np.linalg.eigh(lam * lam * np.eye(k) + lam * dc + ac)
        best = max(best, rayleigh_pair(pencil, basis @ vecs[:, np.argmin(np.abs(w))]).p_plus)
    return float(best)


def min_p_plus_reference(pencil, basis):
    """The minimum of p_plus over the unit sphere of span(basis), orthonormal
    columns, as (value, witness, certificate mu), by bisection on the
    compressed pencil mu^2 I + mu dc + ac.

    f(mu) = lambda_max of the compressed T(mu) is convex with its minimum in
    [-|dc|/2, 0]. Bisection on the sign of its slope 2 mu + dc[y] (y the top
    eigenvector) stops at a certificate f(mu) < 0 beyond 16 k eps
    term_scale(mu): the subspace then lies inside the cone, and the minimum
    is p_plus at the kernel vector (one eigh) of the k-th largest eigenvalue
    of the compressed companion. It also stops at a top eigenvector outside
    the cone, a witness of -inf. After 64 steps without either the value is
    nan (inconclusive).
    """
    k = basis.shape[1]
    dc = basis.T @ pencil.d_matrix @ basis
    ac = basis.T @ pencil.a0_matrix @ basis
    dc, ac = (dc + dc.T) / 2.0, (ac + ac.T) / 2.0
    lo, hi = -0.5 * float(np.linalg.eigvalsh(dc)[-1]), 0.0
    for _ in range(64):
        mu = 0.5 * (lo + hi)
        w, vecs = np.linalg.eigh(mu * mu * np.eye(k) + mu * dc + ac)
        if w[-1] < -16.0 * k * np.finfo(float).eps * pencil.term_scale(mu):
            companion = np.block([[np.zeros((k, k)), np.eye(k)], [-ac, -dc]])
            lam = np.sort(np.linalg.eigvals(companion).real)[::-1][k - 1]
            w, vecs = np.linalg.eigh(lam * lam * np.eye(k) + lam * dc + ac)
            x = basis @ vecs[:, np.argmin(np.abs(w))]
            return rayleigh_pair(pencil, x).p_plus, x, mu
        y = vecs[:, -1]
        x = basis @ y
        if not rayleigh_pair(pencil, x).in_dstar:
            return -np.inf, x, None
        if 2.0 * mu + y @ dc @ y > 0.0:
            hi = mu
        else:
            lo = mu
    return np.nan, None, None


def csv_rows_reference(times, energies, dissipation):
    """The simulate CSV rows, one `%` per row over plain Python floats."""
    return "".join("%.12g,%.16g,%.16g\n" % row
                   for row in zip(times.tolist(), energies.tolist(), dissipation.tolist()))


def beam_alpha_closed_form(n_modes):
    """alpha of the n_modes-mode beam with constant damping d = 4 and
    a0 = 1: the chord of W between modes 1 and N crosses s^2 = 4a at
    -(pi^2/4) [(N^2 + 1) - sqrt(N^4 - 14 N^2 + 1)]."""
    n = float(n_modes)
    return -(np.pi**2 / 4.0) * ((n * n + 1.0) - np.sqrt(n**4 - 14.0 * n * n + 1.0))


def random_pencil_built_twice(dim, seed, damping_scale):
    """random_pencil(..., ensure_real_root_cone=True) as two constructions:
    the pencil of the unscaled damping, whose gamma and |A0^{-1}| decide
    the scale, then the pencil of the scaled damping."""
    pencil = random_pencil(dim, seed, damping_scale)
    _, gamma = compute_delta_gamma(pencil)
    needed = 2.5 * np.sqrt(pencil.a0_inv_norm)
    if gamma < needed:
        return QuadraticPencil(pencil.a0_matrix, pencil.d_matrix * (needed / max(gamma, 1e-300)))
    return pencil


def closed_form_inverse(pencil):
    """The inverse [[-W, -A0^{-1/2}], [A0^{-1/2}, 0]] of the whitened
    companion, W = A0^{-1/2} D A0^{-1/2}, from the pencil's cached factors."""
    n, s_inv = pencil.dim, pencil.a0_inv_sqrt_blocks.dense()
    return np.block([[-pencil.whitened_damping, -s_inv], [s_inv, np.zeros((n, n))]])


def real_roots_polished(pencil, lower, steps=50):
    """Real eigenvalues in (lower, 0] of a pencil with positive definite A0
    and D, sorted descending: the real eigenvalues of the whole 2n x 2n
    companion [[0, S], [-S, -D]], S = A0^{1/2} (one scipy.linalg.eigvals),
    each polished by root steps on the whole graded G T(lam) G,
    G = diag(A0)^{-1/2}: lam <- p_plus(G x), x the eigenvector of the
    eigenvalue smallest in modulus, until a step no longer shrinks."""
    a0, d = pencil.a0_matrix, pencil.d_matrix
    n = pencil.dim
    w, v = np.linalg.eigh(a0)
    s = (v * np.sqrt(w)) @ v.T
    roots = scipy.linalg.eigvals(np.block([[np.zeros((n, n)), s], [-s, -d]]))
    real = roots.real[np.abs(roots.imag) <= 1e-8 * np.abs(roots)]
    real = np.sort(real[(real > lower) & (real <= 0.0)])[::-1]
    g = 1.0 / np.sqrt(np.diagonal(a0))
    polished = []
    for lam in real:
        step = np.inf
        for _ in range(steps):
            e, x = np.linalg.eigh((lam * lam * np.eye(n) + lam * d + a0) * np.outer(g, g))
            y = g * x[:, np.argmin(np.abs(e))]
            a, b, c = y @ y, y @ d @ y, y @ a0 @ y
            nxt = -2.0 * c / (b + np.sqrt(b * b - 4.0 * a * c))
            if not abs(nxt - lam) < step:
                break
            lam, step = nxt, abs(nxt - lam)
        polished.append(lam)
    return np.array(polished)
