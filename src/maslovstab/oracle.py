"""Brute-force ground truth: dense finite-difference eigensolves.

The operator d^2/dx^2 + Q(x) is discretized on a uniform grid over [-L, L]
with Dirichlet truncation and the [1, -2, 1]/h^2 stencil, giving a symmetric
block-tridiagonal matrix stored in banded form.  Eigenvalues come from the
LAPACK-backed banded symmetric solver; an independently written
Householder-tridiagonalization + Sturm-sequence bisection solver provides
the cross-check route for the accuracy contract.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvals_banded, solve_banded

from .errors import DiscretizationError, SeparationError

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
    npt = int(round((b - a) / h)) - 1
    if npt < 2:
        raise DiscretizationError("interval too short for the requested step")
    if n * npt > MAX_UNKNOWNS:
        raise DiscretizationError(
            f"{n * npt} unknowns exceed the memory bound {MAX_UNKNOWNS}"
        )
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


def _band_matvec(band, v):
    out = band[0] * v
    for off in range(1, band.shape[0]):
        diag = band[off, : len(v) - off]
        out[off:] += diag * v[:-off]
        out[:-off] += diag * v[off:]
    return out


def _general_banded(band, shift):
    """Convert symmetric lower-banded storage to solve_banded layout."""
    width = band.shape[0] - 1
    size = band.shape[1]
    ab = np.zeros((2 * width + 1, size))
    ab[width, :] = band[0, :] - shift
    for off in range(1, width + 1):
        ab[width + off, : size - off] = band[off, : size - off]
        ab[width - off, off:] = band[off, : size - off]
    return ab


def _inverse_iteration(band, value, iterations=3):
    """Eigenvector for an eigenvalue already known to LAPACK accuracy.

    The start vector is pseudo-random with a fixed seed: deterministic,
    and generic with respect to the parity symmetries of wave problems
    (a symmetric start would be orthogonal to odd eigenfunctions).
    """
    width = band.shape[0] - 1
    size = band.shape[1]
    scale = float(np.max(np.abs(band)))
    ab = _general_banded(band, value + 1e-10 * scale)
    v = np.random.default_rng(987654321).standard_normal(size)
    v /= np.linalg.norm(v)
    for _ in range(iterations):
        v = solve_banded((width, width), ab, v)
        v /= np.linalg.norm(v)
    return v


def eigenpairs_above(disc, lambda_star):
    """Eigenvalues above lambda_star with their eigenvectors (ascending).

    Eigenvalues come from the banded LAPACK solver; vectors from banded
    inverse iteration at those values (deterministic start vector).
    """
    # spectra of d^2/dx^2 + Q lie below max Q; keep the range ordered even
    # when lambda_star already exceeds that bound (the result is then empty)
    upper = max(_gershgorin_upper(disc) + 1.0, lambda_star + 1.0)
    vals = eigvals_banded(
        disc.band, lower=True, select="v", select_range=(lambda_star, upper)
    )
    if len(vals) == 0:
        return vals, np.zeros((disc.size, 0))
    vecs = np.column_stack([_inverse_iteration(disc.band, v) for v in vals])
    return vals, vecs


def _interior_mass_fraction(disc, vec, half_width):
    weights = vec.reshape(-1, disc.n)
    mass = np.sum(weights**2, axis=1)
    total = mass.sum()
    if total == 0.0:
        return 0.0
    inside = np.abs(disc.grid) <= half_width
    return float(mass[inside].sum() / total)


def oracle_count_above(model, L, h, lambda_star, mass_fraction=0.5,
                       separation_scale=0.1):
    """Count discrete eigenvalues above lambda_star.

    Requires lambda_star to keep a distance > 10 h^2 * separation_scale from
    every discrete eigenvalue (the FD eigenvalue error is O(h^2); the scale
    defaults to a conservative error constant for smooth potentials).
    Eigenvalues whose eigenvector mass inside [-L/2, L/2] is below
    mass_fraction are discarded as boundary artifacts.
    """
    return _count_above(discretize(model, L, h), L, lambda_star, mass_fraction,
                        separation_scale)


def _count_above(disc, L, lambda_star, mass_fraction=0.5, separation_scale=0.1):
    """``oracle_count_above`` on a given discretization of [-L, L]."""
    gap = 10.0 * disc.h**2 * separation_scale
    if not lambda_star - gap < lambda_star < lambda_star + gap:
        raise SeparationError(
            f"lambda_star = {lambda_star!r} leaves no room in floating point "
            f"for the separation gap {gap:.3e}"
        )
    nearby = eigvals_banded(
        disc.band, lower=True, select="v",
        select_range=(lambda_star - gap, lambda_star + gap),
    )
    if len(nearby) > 0:
        raise SeparationError(
            f"eigenvalue {nearby[0]:.9g} lies within {gap:.3e} of "
            f"lambda_star = {lambda_star!r}"
        )
    vals, vecs = eigenpairs_above(disc, lambda_star)
    count = 0
    for j in range(len(vals)):
        if _interior_mass_fraction(disc, vecs[:, j], L / 2.0) > mass_fraction:
            count += 1
    return count


def scalar_count_above(q, a, b, h, lambda_star):
    """Interval-problem variant of the count (no boundary-mass filter)."""
    disc = discretize_interval(q, a, b, h, n=1)
    vals = eigenvalues(disc)
    return int(np.sum(vals > lambda_star))


# ---------------------------------------------------------------------------
# Independent route: Householder tridiagonalization + Sturm-sequence bisection.
# Deliberately avoids the LAPACK eigensolvers so it can arbitrate them.

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
