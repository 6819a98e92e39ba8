"""Eigenvalue comparison between two pencils under the form order.

When the stiffness form dominates (a0 >= a0_hat pointwise as quadratic
forms) and the damping form is dominated (d <= d_hat), every derived scalar
and every real eigenvalue in a shared interval (a, 0] moves the same way:
gamma <= gamma_hat, delta <= delta_hat, N <= N_hat and
lambda_n <= lambda_hat_n.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import FormOrderError, InvalidArgumentError
from .pencil import (DEFINITENESS_TOL, EIGEN_TOL, VERIFY_TOL, QuadraticPencil, alpha_brackets,
                     compute_alpha, compute_delta_gamma)
from .reports import _jsonable
from .variational import IntervalDelta, locate_real_eigenvalues


class ComparisonReport(NamedTuple):
    """The orderings of a pencil pair that passed check_form_order, on the
    shared interval (interval_lower, 0]; per_n holds
    (lambda_n, lambda_hat_n, ordered) for n up to the smaller count."""

    gamma_order_ok: bool
    delta_order_ok: bool
    n_ok: bool
    per_n: tuple[tuple[float, float, bool], ...]
    interval_lower: float
    n_left: int
    n_right: int
    gamma: float
    gamma_hat: float
    delta: float
    delta_hat: float

    @property
    def ok(self) -> bool:
        return (
            self.gamma_order_ok
            and self.delta_order_ok
            and self.n_ok
            and all(entry[2] for entry in self.per_n)
        )

    def to_dict(self) -> dict:
        """The fields, plus the verdict, the order (which compare_eigenvalues
        raises on) and the common count; per_n as objects, since `lambda`
        cannot be a field name."""
        return _jsonable({**self._asdict(), "ok": self.ok, "form_order_ok": True,
                          "n_common": len(self.per_n),
                          "per_n": [{"lambda": a, "lambda_hat": b, "ok": ok}
                                    for a, b, ok in self.per_n]})


def check_form_order(p: QuadraticPencil, p_hat: QuadraticPencil) -> bool:
    """True iff A0 - A0_hat and D_hat - D are both positive semidefinite,
    by the rule of the pencil's construction check (DEFINITENESS_TOL)."""
    if p.dim != p_hat.dim:
        raise InvalidArgumentError(
            f"dimension mismatch: {p.dim} vs {p_hat.dim}"
        )
    stiff_gap = p.a0_matrix - p_hat.a0_matrix
    damp_gap = p_hat.d_matrix - p.d_matrix
    ok = True
    for gap in (stiff_gap, damp_gap):
        w = np.linalg.eigvalsh(gap)
        if w[0] < -DEFINITENESS_TOL * float(np.max(np.abs(w))):
            ok = False
    return ok


def compare_eigenvalues(p: QuadraticPencil, p_hat: QuadraticPencil,
                        a: float | None = None) -> ComparisonReport:
    """Locate both spectra on a shared (a, 0] and verify the full ordering.

    The interval is IntervalDelta.inside the larger of the two alphas (the
    certified upper ends of their brackets), so (a, 0] lies inside both
    pencils' (alpha, 0]; a omitted takes its default lower end, for two
    empty cones the one of the larger |D|. p_hat's bracket is refined only
    until its upper end falls to p's alpha: the upper ends never increase,
    so the larger alpha is then p's either way. Both spectra are located at
    EIGEN_TOL, and lambda_n <= lambda_hat_n is checked with the slack
    VERIFY_TOL. A pair out of form order raises FormOrderError.
    """
    if not check_form_order(p, p_hat):
        raise FormOrderError(
            "form order violated: need a0 >= a0_hat and d <= d_hat as quadratic forms"
        )
    alpha = compute_alpha(p).alpha
    for bracket in alpha_brackets(p_hat):
        if bracket.upper <= alpha:
            break
    interval = IntervalDelta.inside(max(alpha, bracket.upper), a,
                                    max(p.d_norm, p_hat.d_norm))
    res = locate_real_eigenvalues(p, interval, EIGEN_TOL)
    res_hat = locate_real_eigenvalues(p_hat, interval, EIGEN_TOL)

    delta, gamma = compute_delta_gamma(p)
    delta_hat, gamma_hat = compute_delta_gamma(p_hat)
    pad = 1e-12
    n = res.n_found
    n_hat = res_hat.n_found
    per_n = tuple(
        (
            float(res.eigenvalues[i]),
            float(res_hat.eigenvalues[i]),
            bool(res.eigenvalues[i] <= res_hat.eigenvalues[i] + VERIFY_TOL),
        )
        for i in range(min(n, n_hat))
    )
    return ComparisonReport(
        gamma_order_ok=gamma <= gamma_hat + pad * max(1.0, gamma_hat),
        delta_order_ok=delta <= delta_hat + pad * max(1.0, delta_hat),
        n_ok=n <= n_hat,
        per_n=per_n,
        interval_lower=interval.lower,
        n_left=n,
        n_right=n_hat,
        gamma=gamma,
        gamma_hat=gamma_hat,
        delta=delta,
        delta_hat=delta_hat,
    )
