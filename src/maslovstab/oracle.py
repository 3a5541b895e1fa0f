"""Brute-force ground truth: finite-difference eigenvalue counts.

The operator d^2/dx^2 + Q(x) is discretized on a uniform grid over [-L, L]
with Dirichlet truncation and the [1, -2, 1]/h^2 stencil, giving a symmetric
block-tridiagonal matrix stored in banded form.  A count above lambda_star
is an inertia count (Sylvester's law of inertia, with Haynsworth's
additivity over Schur complements): block cyclic reduction of the matrix
shifted by lambda_star -+ h^2 counts the positive eigenvalues of every block
it eliminates.  lambda_star must lie above the essential spectrum, where the
truncation creates no boundary modes.  LAPACK's banded eigensolver serves
``eigenvalues`` and names an eigenvalue that lies too close to lambda_star.
It comes from ``banded``, which imports ``scipy.linalg`` at the first band
solve, so a count alone loads no scipy.  The tests check the inertia counts
against it, and it against an independently written Householder +
Sturm-bisection solver (``tests/reference.py``).
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from .banded import eigvals_banded
from .errors import DiscretizationError, NonHyperbolicError, SeparationError
from .models import check_essential_stability, potential_samples

MAX_UNKNOWNS = 40_000
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


def _build_band(q_at, xs, h, n):
    npt = len(xs)
    qs = potential_samples(q_at, xs).reshape(npt, n, n)
    band = np.zeros((n + 1, n * npt))
    inv_h2 = 1.0 / (h * h)
    band[0] = np.diagonal(qs, axis1=1, axis2=2).ravel() - 2.0 * inv_h2
    # lower diagonal d holds q[c + d, c] at column c of each point's block
    for d in range(1, n):
        band[d].reshape(npt, n)[:, : n - d] = np.diagonal(qs, -d, axis1=1, axis2=2)
    band[n, : n * (npt - 1)] = inv_h2
    return band


def discretize_interval(q, a, b, h, n=1):
    """FD discretization of d^2/dx^2 + q(x) on (a, b), Dirichlet ends.

    q is a callable x -> q(x) or a WaveModel, sampled on the grid through
    ``potential_samples``.

    The snapped step h must leave 1/h^2 a finite float, else
    DiscretizationError.  MAX_UNKNOWNS bounds the eigensolve of
    ``eigenvalues``, not the inertia count: for n = 2 at 27,506 unknowns
    they took 3 s and 0.04 s on a shared 2-core host.
    """
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
    # the stencil's 1/h^2: h^2 may underflow to 0, or its inverse overflow
    if not h_eff * h_eff > 1.0 / sys.float_info.max:
        raise DiscretizationError(
            f"step {h_eff!r} leaves 1/h^2 outside the finite floats")
    xs = a + h_eff * np.arange(1, npt + 1)
    return Discretization(grid=xs, h=h_eff, n=n, band=_build_band(q, xs, h_eff, n))


def discretize(model, L, h):
    """Discretize a wave model's linearization on [-L, L]."""
    if np.exp(-model.decay_rate * L) > 1e-6:
        raise DiscretizationError(
            f"L = {L} is too short for decay rate {model.decay_rate}"
        )
    return discretize_interval(model, -L, L, h, n=model.n)


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
    sigmas = np.array([lambda_star - gap, lambda_star + gap])
    above, above_gap = _counts_above(disc, sigmas).tolist()
    if above != above_gap:
        # the only eigensolve: it names the eigenvalue inside the window
        vals = eigvals_banded(disc.band, lower=True, select="v",
                              select_range=tuple(sigmas))
        which = f"eigenvalue {vals[0]:.9g}" if len(vals) else "an eigenvalue"
        raise SeparationError(
            f"{which} lies within {gap:.3e} of lambda_star = {lambda_star!r}"
        )
    return above


def _blocks(disc):
    """Diagonal blocks (N, n, n) and sub-diagonal couplings (N-1, n, n)."""
    n = disc.n
    cols = disc.band.reshape(n + 1, -1, n)   # [offset, point, column in block]
    diag = np.zeros((cols.shape[1], n, n))
    lower = np.zeros((cols.shape[1] - 1, n, n))
    for d in range(n + 1):
        for c in range(n):
            if c + d < n:
                diag[:, c + d, c] = diag[:, c, c + d] = cols[d, :, c]
            else:
                lower[:, c + d - n, c] = cols[d, :-1, c]
    return diag, lower


def _counts_above(disc, sigmas):
    """Number of eigenvalues above each shift, by Sylvester inertia.

    Each round of block cyclic reduction eliminates every odd-numbered
    block of the shifted matrix at once and leaves their Schur complement
    on the even-numbered ones.  By Haynsworth's additivity of inertia, the
    positive eigenvalues of all eliminated blocks (and of the last one)
    number those of the whole matrix.  The shifts are stacked on the
    leading axis; the cost is O(N n^3) over log2 N batched rounds.
    """
    diag, lower = _blocks(disc)
    d = diag[None] - sigmas[:, None, None, None] * np.eye(disc.n)
    c = np.broadcast_to(lower, (len(sigmas),) + lower.shape)
    counts = 0
    while d.shape[1] > 1:
        odd = d[:, 1::2]
        vals = _eigvalsh(odd, sigmas)
        counts += np.count_nonzero(vals > 0, axis=(1, 2))
        # odd block j couples to j - 1 through left[j] and to j + 1
        # through right[j]; the last odd block may have no right neighbour
        left, right = c[:, 0::2], c[:, 1::2]
        k, m = odd.shape[1], right.shape[1]
        try:
            from_left = np.linalg.solve(odd, left)
            from_right = np.linalg.solve(odd[:, :m], right.swapaxes(-1, -2))
        except np.linalg.LinAlgError:
            _singular(sigmas, vals)
        even = d[:, 0::2].copy()
        even[:, :k] -= left.swapaxes(-1, -2) @ from_left
        even[:, 1:m + 1] -= right @ from_right
        d, c = even, -right @ from_left[:, :m]
    return counts + np.count_nonzero(_eigvalsh(d, sigmas) > 0, axis=(1, 2))


def _eigvalsh(blocks, sigmas):
    vals = np.linalg.eigvalsh(blocks)
    if not np.all(np.isfinite(vals)):
        _singular(sigmas, vals)
    return vals


def _singular(sigmas, vals):
    k = int(np.argmin(np.nan_to_num(np.abs(vals), nan=0.0).min(axis=(1, 2))))
    raise SeparationError(
        f"the FD matrix shifted by {float(sigmas[k])!r} has a singular or "
        "non-finite eliminated block"
    )
