"""Reference computations used only by the tests.

``charpoly_bisection_eigenvalues`` (Householder tridiagonalization + Sturm
bisection) avoids LAPACK, so the tests can check the FD oracle's LAPACK
results against it.
"""

import numpy as np

from maslovstab import oracle
from maslovstab.symplectic import LagrangianFrame, qr_positive


def scalar_count_above(q, a, b, h, lambda_star):
    """FD count above lambda_star of the scalar problem q on (a, b), Dirichlet ends."""
    disc = oracle.discretize_interval(q, a, b, h, n=1)
    vals = oracle.eigenvalues(disc)
    return int(np.sum(vals > lambda_star))


def householder_tridiagonal(m):
    """Reduce a symmetric matrix to tridiagonal form; returns (diag, subdiag)."""
    a = np.array(m, dtype=float, copy=True)
    size = a.shape[0]
    for k in range(size - 2):
        x = a[k + 1:, k].copy()
        norm_x = np.linalg.norm(x)
        if norm_x == 0.0:
            continue
        alpha = -np.copysign(norm_x, x[0]) if x[0] != 0.0 else -norm_x
        v = x
        v[0] -= alpha
        v_norm = np.linalg.norm(v)
        if v_norm < 1e-300:
            continue
        v /= v_norm
        sub = a[k + 1:, k + 1:]
        p = sub @ v
        w = p - (v @ p) * v
        sub -= 2.0 * np.outer(v, w) + 2.0 * np.outer(w, v)
        a[k + 1, k] = alpha
        a[k + 2:, k] = 0.0
        a[k, k + 1:] = a[k + 1:, k]
    return np.diag(a).copy(), np.diag(a, -1).copy()


def sturm_count(diag, sub, sigmas):
    """Number of eigenvalues at or below each sigma, by the Sturm sequence.

    Zero pivots are nudged negative (LAPACK pivmin convention), which ties
    exact hits to the "at or below" side; bisection only needs monotonicity.
    """
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    sub2 = sub**2
    pivmin = max(float(np.max(sub2, initial=0.0)), 1.0) * 1e-30
    count = np.zeros(sigmas.shape, dtype=int)
    q = np.zeros_like(sigmas)
    for i in range(len(diag)):
        if i == 0:
            q = diag[0] - sigmas
        else:
            q = diag[i] - sigmas - sub2[i - 1] / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0.0
    return count


def charpoly_bisection_eigenvalues(m, tol=1e-13):
    """All eigenvalues of a symmetric matrix by Sturm bisection (ascending)."""
    diag, sub = householder_tridiagonal(m)
    pad = np.concatenate([[0.0], np.abs(sub), [0.0]])
    radius = pad[:-1] + pad[1:]
    lo_bound = float(np.min(diag - radius)) - 1e-8
    hi_bound = float(np.max(diag + radius)) + 1e-8
    size = len(diag)
    lo = np.full(size, lo_bound)
    hi = np.full(size, hi_bound)
    targets = np.arange(1, size + 1)
    scale = max(1.0, abs(lo_bound), abs(hi_bound))
    while np.max(hi - lo) > tol * scale:
        mid = 0.5 * (lo + hi)
        counts = sturm_count(diag, sub, mid)
        take_hi = counts >= targets
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def continuity_metric(prob, samples=512):
    """Two-scale finite-difference heuristic for continuity of q.

    Returns (ok, detail).  For continuous q the largest step difference
    roughly halves when the grid is refined; a jump keeps it constant.
    """
    a, b = prob.interval
    vals = {}
    for m in (samples, 2 * samples):
        xs = np.linspace(a, b, m + 1)
        qs = np.array([prob.q(x) for x in xs], dtype=float)
        if not np.all(np.isfinite(qs)):
            return False, "q evaluates to a non-finite value"
        vals[m] = np.max(np.abs(np.diff(qs))) if len(qs) > 1 else 0.0
    scale = 1.0 + max(abs(vals[samples]), abs(vals[2 * samples]))
    if vals[2 * samples] <= 0.8 * vals[samples] + 1e-9 * scale:
        return True, "steps contract under refinement"
    return False, (
        f"largest sampled jump {vals[2 * samples]:.3e} does not contract "
        f"under grid refinement (coarse {vals[samples]:.3e})"
    )


def plane_distance(frame1, frame2):
    """Distance between column spans: sine of the largest principal angle.

    Takes LagrangianFrames or raw (2n, n) matrices, real or complex.
    """
    p1, p2 = (
        qr_positive(f.stacked() if isinstance(f, LagrangianFrame) else f)
        for f in (frame1, frame2)
    )
    return float(np.linalg.norm(p1 @ p1.conj().T - p2 @ p2.conj().T, 2))
