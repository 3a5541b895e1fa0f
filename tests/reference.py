"""Reference computations used only by the tests.

``charpoly_bisection_eigenvalues`` (Householder tridiagonalization + Sturm
bisection) avoids LAPACK, so the tests can check the FD oracle's LAPACK
results against it, on the full matrix that ``dense_matrix`` builds from a
``Discretization``'s band.

Test oracles that no code in the package calls live here too:
``check_lagrangian`` (with ``LagrangianCheck``, ``RANK_TOL`` and
``LAGR_TOL``) reports rank defect and symplectic asymmetry of frames;
``constant_model`` is the no-wave baseline model;
``translation_mode_residual`` checks a profile against its potential;
``eigenfunction_zero_count`` (raising ``NotAnEigenvalueError``) reads the
Sturm zero count off the Prufer angle; ``evans_matched_at`` is the
Evans value matched at any x from two plain propagation legs; and
``quadrature_grid`` integrates over the unit sphere, as spherical-harmonic
orthonormality checks need.
"""

from dataclasses import dataclass

import numpy as np

from maslovstab import flow, oracle, prufer
from maslovstab.errors import MaslovStabError, ModelValidationError
from maslovstab.models import WaveModel
from maslovstab.symplectic import _as_stack, qr_positive

RANK_TOL = 1e-10
LAGR_TOL = 1e-8


def scalar_count_above(q, a, b, h, lambda_star):
    """FD count above lambda_star of the scalar problem q on (a, b), Dirichlet ends."""
    disc = oracle.discretize_interval(q, a, b, h, n=1)
    vals = oracle.eigenvalues(disc)
    return int(np.sum(vals > lambda_star))


def dense_matrix(disc):
    """The full symmetric matrix of an ``oracle.Discretization`` (small
    problems only)."""
    m = disc.size
    out = np.zeros((m, m))
    for off in range(disc.band.shape[0]):
        vals = disc.band[off, : m - off]
        idx = np.arange(m - off)
        out[idx + off, idx] = vals
        out[idx, idx + off] = vals
    return out


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

    Takes (2n, n) frames, real or complex.
    """
    p1, p2 = (qr_positive(f) for f in (frame1, frame2))
    return float(np.linalg.norm(p1 @ p1.conj().T - p2 @ p2.conj().T, 2))


@dataclass(frozen=True)
class LagrangianCheck:
    """Violation report for the two frame invariants."""

    rank_defect: int
    asymmetry: float
    smallest_singular_value: float
    passed: bool


def check_lagrangian(frames):
    """Report rank defect of each frame and its symplectic asymmetry.

    The asymmetry is the spectral norm of A^T B - B^T A, i.e. the largest
    value of the symplectic form on a pair of unit combinations of columns.
    A single frame gives Python scalars, a stack arrays of its leading shape.
    """
    stack, lead = _as_stack(frames)
    n = stack.shape[-1]
    s = np.linalg.svd(stack, compute_uv=False)
    scale = np.maximum(1.0, s[:, 0])
    defect = np.sum(s <= RANK_TOL * scale[:, None], axis=1)
    a, b = stack[:, :n], stack[:, n:]
    asym = np.swapaxes(a, 1, 2) @ b - np.swapaxes(b, 1, 2) @ a
    asym_norm = np.linalg.norm(asym, 2, axis=(1, 2))
    passed = (defect == 0) & (asym_norm <= LAGR_TOL * scale**2)
    values = (v.reshape(lead) for v in (defect, asym_norm, s[:, -1], passed))
    return LagrangianCheck(*(v.item() if lead == () else v for v in values))


def constant_model(q_inf):
    """No-wave model with Q identically equal to its limit (for baselines).

    The deviation from the limit is exactly zero, so any decay rate is
    truthful; a large one lets short computational domains pass validation.
    """
    q_inf = np.atleast_2d(np.asarray(q_inf, dtype=float))
    return WaveModel(
        n=q_inf.shape[0],
        potential=lambda x: q_inf,
        q_minus=q_inf,
        q_plus=q_inf,
        decay_rate=10.0,
        kind="custom",
        name="constant",
    )


def translation_mode_residual(model, grid):
    """Relative FD residual of L(phi_x) = (phi_x)_xx + Q phi_x = 0.

    Small for models whose potential really is the linearization at the
    stated profile; detects profile/potential inconsistencies.
    """
    if model.profile_derivative is None:
        raise ModelValidationError("profile_derivative is required for the residual")
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    u = np.array([np.atleast_1d(model.profile_derivative(x)) for x in grid], dtype=float)
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    res = np.empty_like(d2u)
    for i, x in enumerate(grid[1:-1]):
        res[i] = d2u[i] + model.q(x) @ u[i + 1]
    scale = np.sqrt(np.mean(u[1:-1] ** 2))
    if scale == 0.0:
        raise ModelValidationError("profile derivative vanishes identically")
    return float(np.sqrt(np.mean(res**2)) / scale)


class NotAnEigenvalueError(MaslovStabError):
    """A value claimed to be an eigenvalue fails the residual check."""


def eigenfunction_zero_count(prob, lambda_k, residual_tol=1e-6, rtol=1e-10):
    """Interior zero count of the eigenfunction at an eigenvalue lambda_k.

    On short intervals theta(b; lambda_k) lands on a multiple of pi within
    residual_tol.  On long intervals the terminal angle is a staircase in
    lambda too sharp for that; lambda_k is then accepted as an eigenvalue
    when the staircase drops through exactly one multiple of pi inside a
    tiny lambda window, and the zero count is the plateau level above.
    """
    theta_end = prufer._theta_ends(prob, [lambda_k], rtol)[0]
    nearest = np.round(theta_end / np.pi)
    if abs(theta_end - nearest * np.pi) <= residual_tol and nearest >= 1:
        return int(nearest) - 1
    deltas = np.array([1e-13, 1e-11, 1e-9]) * (1.0 + abs(lambda_k))
    ends = prufer._theta_ends(prob, np.concatenate([lambda_k + deltas, lambda_k - deltas]),
                              rtol)
    levels = np.floor(ends / np.pi).astype(int)
    for above, below in zip(levels[:3], levels[3:]):
        if below == above + 1 and above >= 0:
            return int(above)
    raise NotAnEigenvalueError(
        f"theta(b; {lambda_k!r}) = {theta_end:.12g} is not a positive "
        f"multiple of pi within {residual_tol:.1e} and no eigenvalue jump "
        "was found nearby"
    )


def evans_matched_at(model, lams, opts, x_m):
    """det[U_-(x_m) | U_+(x_m)] at real lams, from two ``flow.propagate``
    legs: U_- forward from -L and U_+ backward from +L (``opts`` resolved).

    The matching point moves the value by a positive factor only, never a
    zero."""
    L = opts.truncation
    lams = np.asarray(lams, dtype=float)
    unstable, _, _ = flow._asymptotic_frames(model, lams, "minus")
    _, stable, _ = flow._asymptotic_frames(model, lams, "plus")
    u_minus = flow.propagate(model, lams, unstable, [-L, x_m], opts)[-1]
    u_plus = flow.propagate(model, lams, stable, [L, x_m], opts)[-1]
    return np.linalg.det(np.concatenate([u_minus, u_plus], axis=2))


def quadrature_grid(n_polar=24, n_azimuth=48):
    """Gauss-Legendre in cos(theta) times uniform azimuth, with weights."""
    nodes, weights = np.polynomial.legendre.leggauss(n_polar)
    thetas = np.arccos(nodes)
    phis = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    w_phi = 2.0 * np.pi / n_azimuth
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    weight_grid = np.broadcast_to((weights * w_phi)[:, None], theta_grid.shape)
    return theta_grid.ravel(), phi_grid.ravel(), weight_grid.ravel()
