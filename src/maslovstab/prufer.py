"""Scalar Dirichlet eigenvalue problems on an interval via the Prufer angle.

For lambda v = v_xx + q(x) v with v(a) = v(b) = 0, writing v = r sin(theta)
and v_x = r cos(theta) decouples the angle:

    theta_x = cos^2(theta) + (q(x) - lambda) sin^2(theta),   theta(a) = 0.

lambda is an eigenvalue exactly when theta(b; lambda) is a positive multiple
of pi.  theta(b; .) decreases strictly in lambda, and theta passes every
multiple of pi with slope one, so oscillation counts and conjugate points
reduce to reading this one scalar trajectory.  The radial amplitude r is
never integrated.

Eigenvalues are located on the matched-point form of the same count, as in
Sturm-Liouville codes (Pryce, *Numerical Solution of Sturm-Liouville
Problems*, 1993): theta_L is shot forward from a and theta_R backward from
b, both from 0, to an interior point x_m, and the mismatch
Delta = theta_L(x_m) - theta_R(x_m) satisfies Delta(lambda_j) = (j+1) pi.
Both legs run in one integration over a common parameter t in [0, 1].
On a long interval theta(b; .) drops through each multiple of pi within a
lambda window of width ~ e^{-2 mu (b-a)}; Delta, matched where q peaks, is
smooth there, so a root search can use its slope.  The search starts from
the Dirichlet comparison bound lambda_{N-1} >= inf q - (N pi / (b-a))^2.
It runs in rounds of one two-leg integration each, whose cost hardly
depends on how many lambdas it carries, so it spends points to save rounds:
a single-well pulse takes three, the first bracket with a 63-point grid
inside it, then two rounds clustered around an inverse-interpolation
estimate of each root.
"""

from dataclasses import dataclass, field

import numpy as np

from .brent import brentq
from .dop853 import solve_ivp
from .errors import (
    BoundaryResonanceError,
    BracketError,
    SolverError,
)
from .models import potential_samples

ANGLE_TOL = 1e-10
RESONANCE_TOL = 1e-7
# integration tolerances of the angle counts (count_eigenvalues_above,
# conjugate_points) and of the eigenvalue search
COUNT_RTOL = 1e-10
SEARCH_RTOL = 1e-11
# interior points per open bracket in each round of find_eigenvalues
MULTISECTION_POINTS = 15
# largest rise of the angle mismatch between sorted shots of one search that
# is read as integration error: staircases rise by ~1e-3 rad at most, shots
# that disagree on a narrow dip by half a radian or more
MONOTONE_TOL = 0.1


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
        return float(self.dense(x)[0])


def _angle_solution(prob, lams, rtol, points=(), dense=False):
    """Integrate the angle equation over (a, b) for a vector of lambdas at once.

    The state holds one angle per lambda; q is read once per stage abscissa
    of each step, so a batch costs about one shot's worth of solver steps.
    The states at ``points`` and, with ``dense``, an interpolant over
    (a, b) come with the end state.
    """
    lams = np.asarray(lams, dtype=float)
    q = prob.q

    def sample(xs):
        return np.array([float(q(x)) for x in xs])

    def rhs(x, theta, q_x):
        s, c = np.sin(theta), np.cos(theta)
        return c * c + (q_x - lams) * s * s

    sol = solve_ivp(
        rhs,
        prob.interval,
        np.zeros(len(lams)),
        rtol=rtol,
        atol=max(rtol * 1e-2, 1e-14),
        points=points,
        sample=sample,
        dense=dense,
    )
    if not sol.success:
        raise SolverError(
            f"angle integration failed near x = {sol.t[-1]:.6g}: {sol.message}"
        )
    return sol


def _theta_ends(prob, lams, rtol):
    """theta(b; lambda) for every lambda in `lams`, from one integration."""
    return _angle_solution(prob, lams, rtol).y


def _mismatch(prob, lams, x_m, rtol):
    """Delta(lambda) = theta_L(x_m) - theta_R(x_m) for every lambda in `lams`.

    theta_L is shot forward from a and theta_R backward from b, both from
    theta = 0, in one integration of the 2K angles over t in [0, 1]: leg i
    sits at x_i = s_i + t (x_m - s_i), s = (a, b), and

        d theta / dt = (x_m - s_i) (1 + (q(x_i) - lambda - 1) sin^2 theta),

    the angle equation with cos^2 = 1 - sin^2.  Each DOP853 step reads q on
    both legs at all its stage abscissae into one (m, 2, 1) array, and each
    right-hand side takes its row and one sine of the whole state.  The
    pair costs about one full shot.  Delta decreases strictly in lambda, and
    floor(Delta / pi) counts the eigenvalues above lambda:
    Delta(lambda_j) = (j+1) pi.
    """
    lams = np.asarray(lams, dtype=float)
    k = len(lams)
    q = prob.q
    a, b = prob.a, prob.b
    len_a, len_b = x_m - a, x_m - b
    lengths = np.array([[len_a], [len_b]])
    starts = np.array([[a], [b]])
    offset = lengths * (lams + 1.0)

    def sample(ts):
        # (x_m - s_i) q(x_i) at every stage abscissa of one step, as (m, 2, 1)
        xs = starts + ts * lengths
        qs = np.array([float(q(x)) for x in xs.ravel()]).reshape(xs.shape)
        return (lengths * qs).T[:, :, None]

    def rhs(t, theta, scaled_q):
        s = np.sin(theta).reshape(2, k)
        out = scaled_q - offset
        out *= s
        out *= s
        out += lengths
        return out.ravel()

    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        np.zeros(2 * k),
        rtol=rtol,
        atol=max(rtol * 1e-2, 1e-14),
        sample=sample,
    )
    if not sol.success:
        t = sol.t[-1]
        raise SolverError(
            f"angle integration failed near x = {a + t * len_a:.6g} (from a) "
            f"and x = {b + t * len_b:.6g} (from b): {sol.message}"
        )
    return sol.y[:k] - sol.y[k:]


def prufer_flow(prob, lambda_, rtol=1e-9, n_samples=257):
    """Integrate the decoupled angle equation with theta(a) = 0."""
    lam = float(lambda_)
    xs = np.linspace(prob.a, prob.b, n_samples)
    sol = _angle_solution(prob, [lam], rtol, points=xs, dense=True)
    samples = np.column_stack([xs, sol.ys[0]])
    return PruferTrajectory(lam, samples, float(sol.y[0]), dense=sol.sol)


def _check_resonance(theta_end):
    nearest = np.round(theta_end / np.pi) * np.pi
    if abs(theta_end - nearest) < RESONANCE_TOL:
        raise BoundaryResonanceError(
            f"theta(b) = {theta_end:.12g} is within {RESONANCE_TOL:.1e} of a multiple "
            "of pi; lambda_star sits on (or too near) an eigenvalue"
        )


def count_eigenvalues_above(prob, lambda_star):
    """Number of Dirichlet eigenvalues strictly above lambda_star."""
    theta_end = _theta_ends(prob, [lambda_star], COUNT_RTOL)[0]
    _check_resonance(theta_end)
    return int(np.floor(theta_end / np.pi))


def _q_peak(prob):
    """max q over 1001 points of [a, b], the matching point x_m (the
    interior sample where q is largest) and min q over the same points.
    q is read through ``potential_samples``, so a sample that is not finite
    raises ModelValidationError naming its x."""
    xs = np.linspace(prob.a, prob.b, 1001)
    qs = potential_samples(prob.q, xs)
    return float(qs.max()), float(xs[1 + np.argmax(qs[1:-1])]), float(qs.min())


def _inverse_interpolation(lams, deltas, targets, upper):
    """lambda at Delta = target on the cubic lambda(Delta) through four
    sorted pairs around each bracket (upper - 1, upper), two on each side
    away from the ends of the list; NaN where two of those mismatches
    coincide."""
    window = np.clip(upper - 2, 0, len(lams) - 4)[:, None] + np.arange(4)
    d, lam = deltas[window], lams[window]
    gaps = d[:, :, None] - d[:, None, :]
    own = np.eye(4, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = (targets[:, None, None] - d[:, None, :]) / np.where(own, 1.0, gaps)
        weights = np.where(own, 1.0, factors).prod(axis=2)
        return (weights * lam).sum(axis=1)


def find_eigenvalues(prob, how_many):
    """The top eigenvalues lambda_0 > lambda_1 > ... by a lockstep root search.

    Solves Delta(lambda_j) = (j+1) pi for the angle mismatch of ``_mismatch``,
    matched at x_m, the interior sample where q peaks.  Delta is strictly
    decreasing in lambda, so every evaluated (lambda, Delta) pair narrows the
    bracket of each target angle at once, and each round evaluates all its
    new points in one two-leg integration, whose cost hardly depends on how
    many points it carries.  The first bracket runs from sup q + 1 down to
    the Dirichlet comparison bound inf q - (N pi / (b - a))^2 - 1 on
    N = how_many, both read from 1001 samples of q by ``_q_peak``, which
    refuses a sample that is not finite.  The first round evaluates both
    ends and an even grid of 4 (MULTISECTION_POINTS + 1) - 1 points between
    them; while the lower end fails to bracket, it is doubled downwards one
    shot at a time.

    Each later round places MULTISECTION_POINTS points in every open
    bracket.  An eigenfunction that lives near x_m makes Delta smooth in
    lambda, so the points cluster around an estimate of the root, at
    offsets of 10^-1 down to 10^-7 bracket widths.  The estimate is the
    cubic through four evaluated pairs around the bracket, lambda as a
    function of Delta, taken at the target; where that lands outside
    the bracket, the regula falsi estimate of the bracket stands in.  A
    bracket is split evenly instead, as plain multisection would, when it
    holds several targets or when the previous round's estimate for it came
    no closer to the root than an even split would have.  A root is
    accepted at an evaluated lambda whose mismatch is within ANGLE_TOL of
    its target.  Every shot integrates at rtol = SEARCH_RTOL.

    An eigenfunction that lives far from x_m (in one well of several) makes
    Delta a staircase near its eigenvalue: it drops by pi over a lambda
    window of width ~ e^{-2 mu d}, d the distance from x_m, often below float
    resolution.  The even splits then narrow the bracket until it is a few
    ulps wide and still straddles the target, and its midpoint is accepted
    as pinched.

    After every round the sorted pairs must not rise by more than
    MONOTONE_TOL; a rise means that shots of one search integrated
    different problems (a potential feature narrower than the solver's
    step, seen by some shots and stepped over by others) and raises
    SolverError naming the pair.  A feature that every shot misses the
    same way leaves Delta monotone and still goes unseen.
    """
    if how_many < 1:
        raise ValueError("how_many must be >= 1")
    targets = np.pi * np.arange(1, how_many + 1)
    q_sup, x_m, q_min = _q_peak(prob)
    hi = q_sup + 1.0
    # lambda_{N-1} >= inf q - (N pi / (b - a))^2; a sampled minimum can miss
    # a narrow dip, so the doubling loop below still checks the bracket
    lo = q_min - (targets[-1] / (prob.b - prob.a)) ** 2 - 1.0
    lams = np.linspace(hi, lo, 4 * (MULTISECTION_POINTS + 1) + 1)
    deltas = _mismatch(prob, lams, x_m, SEARCH_RTOL)
    if deltas[0] >= targets[0]:
        raise BracketError("upper bracket does not undershoot the target angle")
    expansions = 0
    while deltas[-1] <= targets[-1]:
        if expansions == 59:
            raise BracketError(
                f"could not bracket eigenvalue {how_many - 1}: the angle mismatch "
                f"never exceeds {targets[-1]:.6g} down to lambda = {lo:.6g}"
            )
        expansions += 1
        lo = hi - 2.0 * (hi - lo)
        lams = np.append(lams, lo)
        deltas = np.append(deltas, _mismatch(prob, [lo], x_m, SEARCH_RTOL))
    even = np.arange(1, MULTISECTION_POINTS + 1) / (MULTISECTION_POINTS + 1)
    scales = 10.0 ** -np.arange(1, MULTISECTION_POINTS // 2 + 1)
    cluster = np.concatenate([[0.0], -scales, scales])
    estimate = np.full(how_many, np.nan)
    previous = np.zeros(how_many)
    while True:
        order = np.argsort(lams)
        lams, deltas = lams[order], deltas[order]
        rises = np.nonzero(np.diff(deltas) > MONOTONE_TOL)[0]
        if len(rises):
            i = rises[0]
            raise SolverError(
                f"angle mismatch rises from {deltas[i]:.12g} at lambda = {lams[i]:.12g} "
                f"to {deltas[i + 1]:.12g} at lambda = {lams[i + 1]:.12g}; the shots "
                "disagree, as where a potential feature is narrower than the "
                "solver's step"
            )
        misfit = abs(deltas[None, :] - targets[:, None])
        best = np.argmin(misfit, axis=1)
        residuals = misfit.min(axis=1)
        # bracket of target j: the first lambda whose mismatch falls below it
        # and the one before, whose mismatch does not
        upper = np.argmax(deltas[None, :] < targets[:, None], axis=1)
        lower_lam, upper_lam = lams[upper - 1], lams[upper]
        width = upper_lam - lower_lam
        xtol = 1e-13 + 8.9e-16 * np.maximum(abs(lower_lam), abs(upper_lam))
        open_ = (residuals >= ANGLE_TOL) & (width > xtol)
        # last round's estimate earns a clustered round if it came as close
        # to the root as an even split of its bracket would have
        miss = np.maximum(abs(estimate - lower_lam), abs(estimate - upper_lam))
        trusted = np.isnan(estimate) | (miss * (MULTISECTION_POINTS + 1) <= previous)
        shared = np.bincount(upper, minlength=len(lams))[upper] > 1
        lo_d, hi_d = deltas[upper - 1], deltas[upper]
        falsi = lower_lam + (lo_d - targets) / (lo_d - hi_d) * width
        estimate = _inverse_interpolation(lams, deltas, targets, upper)
        estimate = np.where((estimate > lower_lam) & (estimate < upper_lam), estimate, falsi)
        estimate[shared] = np.nan
        previous = width
        secant = open_ & trusted & ~shared
        k = np.unique(upper[open_ & ~secant])
        points = estimate[secant, None] + width[secant, None] * cluster
        inside = (points > lower_lam[secant, None]) & (points < upper_lam[secant, None])
        fresh = np.concatenate([
            (lams[k - 1, None] + (lams[k] - lams[k - 1])[:, None] * even).ravel(),
            points[inside],
        ])
        fresh = np.setdiff1d(fresh, lams)
        if len(fresh) == 0:
            break
        lams = np.append(lams, fresh)
        deltas = np.append(deltas, _mismatch(prob, fresh, x_m, SEARCH_RTOL))
    hit = residuals < ANGLE_TOL
    mids = 0.5 * (lower_lam + upper_lam)
    pinched = 0.5 * width <= 1e-9 * (1.0 + abs(mids))
    failed = np.nonzero(~hit & ~pinched)[0]
    if len(failed):
        j = failed[0]
        raise BracketError(
            f"eigenvalue {j} refined to residual {residuals[j]:.3e} >= "
            f"{ANGLE_TOL:.1e} without a pinched bracket"
        )
    return np.where(hit, lams[best], mids)


def conjugate_points(prob, lambda_star):
    """x-values in (a, b) where theta(x; lambda_star) crosses j pi, j >= 1.

    One conjugate point per eigenvalue above lambda_star; theta passes each
    multiple of pi with slope one, so every crossing is a first passage and
    is refined by root bracketing on the dense trajectory.
    """
    traj = prufer_flow(prob, lambda_star, rtol=COUNT_RTOL, n_samples=1025)
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
