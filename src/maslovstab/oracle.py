"""Brute-force ground truth: banded finite-difference eigensolves.

The operator d^2/dx^2 + Q(x) is discretized on a uniform grid over [-L, L]
with Dirichlet truncation and the [1, -2, 1]/h^2 stencil, giving a symmetric
block-tridiagonal matrix stored in banded form.  A count above lambda_star
is one LAPACK banded eigensolve; lambda_star must lie above the essential
spectrum, where the truncation creates no boundary modes.  The tests check
the LAPACK results against an independently written Householder +
Sturm-bisection solver (``tests/reference.py``).
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
    qs = np.array([np.atleast_2d(np.asarray(q_at(x), dtype=float)) for x in xs])
    band = np.zeros((n + 1, n * npt))
    inv_h2 = 1.0 / (h * h)
    band[0] = np.diagonal(qs, axis1=1, axis2=2).ravel() - 2.0 * inv_h2
    # lower diagonal d holds q[c + d, c] at column c of each point's block
    for d in range(1, n):
        band[d].reshape(npt, n)[:, : n - d] = np.diagonal(qs, -d, axis1=1, axis2=2)
    band[n, : n * (npt - 1)] = inv_h2
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
