"""Scalar Dirichlet eigenvalue problems on an interval via the Prufer angle.

For lambda v = v_xx + q(x) v with v(a) = v(b) = 0, writing v = r sin(theta)
and v_x = r cos(theta) decouples the angle:

    theta_x = cos^2(theta) + (q(x) - lambda) sin^2(theta),   theta(a) = 0.

lambda is an eigenvalue exactly when theta(b; lambda) is a positive multiple
of pi.  theta(b; .) decreases strictly in lambda, and theta passes every
multiple of pi with slope one, so eigenvalue location, oscillation counts and
conjugate points all reduce to reading this one scalar trajectory.  The
radial amplitude r is never integrated.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    BoundaryResonanceError,
    BracketError,
    NotAnEigenvalueError,
    SolverError,
)

ANGLE_TOL = 1e-9
RESONANCE_TOL = 1e-7
# interior points per open bracket in each round of find_eigenvalues
MULTISECTION_POINTS = 15


@dataclass(frozen=True)
class ScalarProblem:
    """Coefficient q and interval (a, b) of a scalar Dirichlet problem."""

    q: callable
    interval: tuple

    def __post_init__(self):
        a, b = self.interval
        if not a < b:
            raise ValueError(f"interval must satisfy a < b, got ({a}, {b})")

    @property
    def a(self):
        return self.interval[0]

    @property
    def b(self):
        return self.interval[1]


@dataclass(frozen=True)
class PruferTrajectory:
    lambda_: float
    samples: np.ndarray  # shape (m, 2) rows (x, theta)
    theta_end: float
    dense: object = field(repr=False, compare=False, default=None)

    def theta_at(self, x):
        return float(self.dense.sol(x)[0])


def _angle_solution(prob, lams, rtol, dense_output=False):
    """Integrate the angle equation for a vector of lambdas at once.

    The state holds one angle per lambda; every right-hand side evaluation
    reads q once, so a batch costs about one shot's worth of solver steps.
    """
    lams = np.asarray(lams, dtype=float)
    q = prob.q

    def rhs(x, theta):
        s, c = np.sin(theta), np.cos(theta)
        return c * c + (float(q(x)) - lams) * s * s

    sol = solve_ivp(
        rhs,
        prob.interval,
        np.zeros(len(lams)),
        method="DOP853",
        rtol=rtol,
        atol=max(rtol * 1e-2, 1e-14),
        dense_output=dense_output,
    )
    if not sol.success:
        raise SolverError(
            f"angle integration failed near x = {sol.t[-1]:.6g}: {sol.message}"
        )
    return sol


def _theta_ends(prob, lams, rtol):
    """theta(b; lambda) for every lambda in `lams`, from one integration."""
    return _angle_solution(prob, lams, rtol).y[:, -1]


def prufer_flow(prob, lambda_, rtol=1e-9, n_samples=257):
    """Integrate the decoupled angle equation with theta(a) = 0."""
    lam = float(lambda_)
    sol = _angle_solution(prob, [lam], rtol, dense_output=True)
    xs = np.linspace(prob.a, prob.b, n_samples)
    thetas = sol.sol(xs)[0]
    samples = np.column_stack([xs, thetas])
    return PruferTrajectory(lam, samples, float(sol.y[0, -1]), dense=sol)


def _check_resonance(theta_end):
    nearest = np.round(theta_end / np.pi) * np.pi
    if abs(theta_end - nearest) < RESONANCE_TOL:
        raise BoundaryResonanceError(
            f"theta(b) = {theta_end:.12g} is within {RESONANCE_TOL:.1e} of a multiple "
            "of pi; lambda_star sits on (or too near) an eigenvalue"
        )


def count_eigenvalues_above(prob, lambda_star, rtol=1e-10):
    """Number of Dirichlet eigenvalues strictly above lambda_star."""
    theta_end = _theta_ends(prob, [lambda_star], rtol)[0]
    _check_resonance(theta_end)
    return int(np.floor(theta_end / np.pi))


def _q_supremum(prob, samples=1001):
    xs = np.linspace(prob.a, prob.b, samples)
    return max(prob.q(x) for x in xs)


def find_eigenvalues(prob, how_many, angle_tol=ANGLE_TOL, rtol=1e-11):
    """The top eigenvalues lambda_0 > lambda_1 > ... by lockstep multisection.

    Solves theta(b; lambda_j) = (j+1) pi.  theta(b; .) is strictly
    decreasing in lambda, so every evaluated (lambda, theta) pair narrows
    the bracket of each target angle at once.  Each round places
    MULTISECTION_POINTS interior points in every open bracket and evaluates
    all of them in one batched shot, until every bracket is as narrow as
    brentq's default tolerance.

    On long intervals theta(b; .) drops through the target over a lambda
    window of width ~ e^{-2 mu (b-a)}, often below float resolution; the
    angle residual is then unattainable and a root is instead accepted when
    its final bracket, a few ulps wide, still straddles the target angle.
    """
    if how_many < 1:
        raise ValueError("how_many must be >= 1")
    targets = np.pi * np.arange(1, how_many + 1)
    q_sup = _q_supremum(prob)
    hi = q_sup + 1.0
    lo = q_sup - (targets[-1] / (prob.b - prob.a)) ** 2 - 1.0
    lams = np.array([hi, lo])
    thetas = _theta_ends(prob, lams, rtol)
    if thetas[0] >= targets[0]:
        raise BracketError("upper bracket does not undershoot the target angle")
    while thetas[-1] <= targets[-1]:
        if len(lams) > 60:
            raise BracketError(
                f"could not bracket eigenvalue {how_many - 1}: theta(b) never "
                f"exceeds {targets[-1]:.6g} down to lambda = {lo:.6g}"
            )
        lo = hi - 2.0 * (hi - lo)
        lams = np.append(lams, lo)
        thetas = np.append(thetas, _theta_ends(prob, [lo], rtol))
    fractions = np.arange(1, MULTISECTION_POINTS + 1) / (MULTISECTION_POINTS + 1)
    while True:
        order = np.argsort(lams)
        lams, thetas = lams[order], thetas[order]
        # bracket of target j: the first lambda whose angle falls below it and
        # the one before, whose angle does not
        upper = np.argmax(thetas[None, :] < targets[:, None], axis=1)
        lower_lam, upper_lam = lams[upper - 1], lams[upper]
        width = upper_lam - lower_lam
        xtol = 1e-13 + 8.9e-16 * np.maximum(abs(lower_lam), abs(upper_lam))
        k = np.unique(upper[width > xtol])
        fresh = lams[k - 1, None] + (lams[k] - lams[k - 1])[:, None] * fractions
        fresh = np.setdiff1d(fresh, lams)
        if len(fresh) == 0:
            break
        lams = np.append(lams, fresh)
        thetas = np.append(thetas, _theta_ends(prob, fresh, rtol))
    mids = 0.5 * (lower_lam + upper_lam)
    residuals = abs(_theta_ends(prob, mids, rtol) - targets)
    pinched = 0.5 * width <= 1e-9 * (1.0 + abs(mids))
    failed = np.nonzero((residuals >= angle_tol) & ~pinched)[0]
    if len(failed):
        j = failed[0]
        raise BracketError(
            f"eigenvalue {j} refined to residual {residuals[j]:.3e} >= "
            f"{angle_tol:.1e} without a pinched bracket"
        )
    return mids


def conjugate_points(prob, lambda_star, rtol=1e-10):
    """x-values in (a, b) where theta(x; lambda_star) crosses j pi, j >= 1.

    One conjugate point per eigenvalue above lambda_star; theta passes each
    multiple of pi with slope one, so every crossing is a first passage and
    is refined by root bracketing on the dense trajectory.
    """
    traj = prufer_flow(prob, lambda_star, rtol=rtol, n_samples=1025)
    _check_resonance(traj.theta_end)
    count = int(np.floor(traj.theta_end / np.pi))
    xs = traj.samples[:, 0]
    thetas = traj.samples[:, 1]
    points = []
    for j in range(1, count + 1):
        level = j * np.pi
        above = np.nonzero(thetas >= level)[0]
        if len(above) == 0:
            raise SolverError(f"lost crossing {j} on the sample grid")
        k = above[0]
        x_lo = xs[k - 1] if k > 0 else xs[0]
        root = brentq(lambda x: traj.theta_at(x) - level, x_lo, xs[k], xtol=1e-13)
        points.append(root)
    return np.array(points)


def eigenfunction_zero_count(prob, lambda_k, residual_tol=1e-6, rtol=1e-10):
    """Interior zero count of the eigenfunction at an eigenvalue lambda_k.

    On short intervals theta(b; lambda_k) lands on a multiple of pi within
    residual_tol.  On long intervals the terminal angle is a staircase in
    lambda too sharp for that; lambda_k is then accepted as an eigenvalue
    when the staircase drops through exactly one multiple of pi inside a
    tiny lambda window, and the zero count is the plateau level above.
    """
    theta_end = _theta_ends(prob, [lambda_k], rtol)[0]
    nearest = np.round(theta_end / np.pi)
    if abs(theta_end - nearest * np.pi) <= residual_tol and nearest >= 1:
        return int(nearest) - 1
    deltas = np.array([1e-13, 1e-11, 1e-9]) * (1.0 + abs(lambda_k))
    ends = _theta_ends(prob, np.concatenate([lambda_k + deltas, lambda_k - deltas]), rtol)
    levels = np.floor(ends / np.pi).astype(int)
    for above, below in zip(levels[:3], levels[3:]):
        if below == above + 1 and above >= 0:
            return int(above)
    raise NotAnEigenvalueError(
        f"theta(b; {lambda_k!r}) = {theta_end:.12g} is not a positive "
        f"multiple of pi within {residual_tol:.1e} and no eigenvalue jump "
        "was found nearby"
    )
