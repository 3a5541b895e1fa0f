"""Brute-force ground truth: banded finite-difference eigensolves.

The operator d^2/dx^2 + Q(x) is discretized on a uniform grid over [-L, L]
with Dirichlet truncation and the [1, -2, 1]/h^2 stencil, giving a symmetric
block-tridiagonal matrix stored in banded form.  A count above lambda_star
is one LAPACK banded eigensolve; lambda_star must lie above the essential
spectrum, where the truncation creates no boundary modes.  An independently
written Householder-tridiagonalization + Sturm-sequence bisection solver is
the reference the tests compare the LAPACK results against.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals_banded

from .errors import DiscretizationError, NonHyperbolicError, SeparationError
from .models import check_essential_stability

MAX_UNKNOWNS = 20_000
MAX_STEP = 0.05


@dataclass(frozen=True)
class Discretization:
    """Banded symmetric FD matrix for one interval problem."""

    grid: np.ndarray          # interior points
    h: float                  # effective step (snapped to divide the interval)
    n: int                    # system size per grid point
    band: np.ndarray = field(repr=False)  # lower banded storage, (n+1, n*N)

    @property
    def size(self):
        return self.band.shape[1]

    def dense(self):
        """Materialize the full symmetric matrix (small problems only)."""
        m = self.size
        if m > 4000:
            raise DiscretizationError(f"dense materialization refused for size {m}")
        out = np.zeros((m, m))
        for off in range(self.band.shape[0]):
            vals = self.band[off, : m - off]
            idx = np.arange(m - off)
            out[idx + off, idx] = vals
            out[idx, idx + off] = vals
        return out


def _build_band(q_at, xs, h, n):
    npt = len(xs)
    total = n * npt
    band = np.zeros((n + 1, total))
    inv_h2 = 1.0 / (h * h)
    for i, x in enumerate(xs):
        qi = np.atleast_2d(np.asarray(q_at(x), dtype=float))
        base = i * n
        for c in range(n):
            col = base + c
            band[0, col] = qi[c, c] - 2.0 * inv_h2
            for d in range(1, n - c):
                band[d, col] = qi[c + d, c]
            if i < npt - 1:
                band[n, col] = inv_h2
    return band


def discretize_interval(q, a, b, h, n=1):
    """FD discretization of d^2/dx^2 + q(x) on (a, b), Dirichlet ends."""
    if h > MAX_STEP:
        raise DiscretizationError(f"step {h} exceeds the bound {MAX_STEP}")
    # a float until bounded: (b - a) / h may overflow to inf
    npt = float(np.rint((b - a) / h)) - 1.0
    if npt < 2:
        raise DiscretizationError("interval too short for the requested step")
    if not n * npt <= MAX_UNKNOWNS:
        raise DiscretizationError(
            f"{n * npt:.6g} unknowns exceed the memory bound {MAX_UNKNOWNS}"
        )
    npt = int(npt)
    h_eff = (b - a) / (npt + 1)
    xs = a + h_eff * np.arange(1, npt + 1)
    return Discretization(grid=xs, h=h_eff, n=n, band=_build_band(q, xs, h_eff, n))


def discretize(model, L, h):
    """Discretize a wave model's linearization on [-L, L]."""
    if np.exp(-model.decay_rate * L) > 1e-6:
        raise DiscretizationError(
            f"L = {L} is too short for decay rate {model.decay_rate}"
        )
    return discretize_interval(model.q, -L, L, h, n=model.n)


def eigenvalues(disc, k=None):
    """Eigenvalues in descending order (all, or just the top k)."""
    if k is None:
        vals = eigvals_banded(disc.band, lower=True)
        return vals[::-1]
    k = min(k, disc.size)
    vals = eigvals_banded(
        disc.band, lower=True, select="i", select_range=(disc.size - k, disc.size - 1)
    )
    return vals[::-1]


def _gershgorin_upper(disc):
    return float(np.max(disc.band[0]) + 2.0 * np.sum(np.abs(disc.band[1:]), axis=0).max())


def oracle_count_above(model, L, h, lambda_star):
    """Count the eigenvalues of the FD matrix above lambda_star.

    lambda_star must lie above the essential spectrum, where Dirichlet
    truncation creates no boundary modes, and keep a distance > h^2 from
    every discrete eigenvalue (the FD eigenvalue error is O(h^2)).
    """
    return _count_above(model, discretize(model, L, h), lambda_star)


def _count_above(model, disc, lambda_star):
    """``oracle_count_above`` on a given discretization of ``model``."""
    edge = check_essential_stability(model).max_eig_qinf
    if not lambda_star > edge:
        raise NonHyperbolicError(
            f"lambda_star = {lambda_star!r} is not above the essential "
            f"spectrum (-inf, {edge:.9g}]"
        )
    gap = disc.h**2
    if not lambda_star - gap < lambda_star < lambda_star + gap:
        raise SeparationError(
            f"lambda_star = {lambda_star!r} leaves no room in floating point "
            f"for the separation gap {gap:.3e}"
        )
    # one solve returns every eigenvalue that is counted or too close; the
    # range stays ordered when lambda_star exceeds the Gershgorin bound
    upper = max(_gershgorin_upper(disc), lambda_star) + 1.0
    vals = eigvals_banded(
        disc.band, lower=True, select="v",
        select_range=(lambda_star - gap, upper),
    )
    if len(vals) > 0 and vals[0] <= lambda_star + gap:
        raise SeparationError(
            f"eigenvalue {vals[0]:.9g} lies within {gap:.3e} of "
            f"lambda_star = {lambda_star!r}"
        )
    return len(vals)


def scalar_count_above(q, a, b, h, lambda_star):
    """Interval-problem variant of the count."""
    disc = discretize_interval(q, a, b, h, n=1)
    vals = eigenvalues(disc)
    return int(np.sum(vals > lambda_star))


# ---------------------------------------------------------------------------
# Independent route: Householder tridiagonalization + Sturm-sequence bisection.
# Deliberately avoids LAPACK, so tests can check the LAPACK results against it.

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
