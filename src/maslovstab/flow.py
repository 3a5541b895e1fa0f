"""Evolution of the unstable-solution Lagrangian plane and the Maslov square.

The eigenvalue problem lambda v = v_xx + Q(x) v becomes the first-order
Hamiltonian system u' = J B(x; lambda) u with

    J B = [[0, I], [lambda I - Q(x), 0]],

whose asymptotic matrices are hyperbolic whenever lambda sits above the
essential spectrum.  The plane of solutions decaying at -infinity is
initialized from the unstable eigenspace at x = -L and evolved across
[-L, L]; conjugate points are the x-values where it meets the Dirichlet
plane, and Atkinson's matrix Prufer angle certifies their count on the
same frames (never the top edge's).  The boundary of the rectangle [lambda_*, lambda_inf] x [-L, L]
is a contractible loop, so its net Maslov index must vanish: conjugate
points on the left edge (+1 each) balance eigenvalue crossings on the top
edge (-1 each), and the right and bottom edges stay empty.  The top edge
counts its crossings as zeros of the Evans function, by the same contour
winding routine that serves the Evans channel (``evans``).  Each Evans value
is one forward run over [-L, 0]: if U = (X; Y) solves U' = J B(x) U, then
(X(-t); -Y(-t)) solves it with Q(-t), so the plane decaying at +infinity
rides in the same stack, reflected, and frames inside [-L, 0] are kept only
where a caller asks for them.  The right edge
is certified empty on the frames the top edge integrates at lambda_inf:
with U = (X; Y), S = Y X^-1 obeys S' = (lambda - Q) - S^2, so it stays
positive definite from S(-L) > 0 while lambda I - Q > 0, and X never turns
singular.

Frame stabilization: at the end of each integration segment the evolved
2n x n frame is re-orthonormalized by a QR factorization with positive
diagonal, which preserves the column span exactly and keeps the
exponential growth of individual columns from destroying the plane.  The
diagonal of R measures that growth, and it sets the next segment's length:
no column should grow or shrink by more than e^{ln(1/rtol) / 2}, and no
segment is more than four times as long as the one before.  Segments end on
requested points where they can, else on a unit grid, never short of its
next point.  Each segment after the first continues from the last step size
the integrator chose freely on the previous one, and its end state is the
solver's last step, not an interpolated value.  The integrator is the
package's DOP853 loop (``dop853``), which gives scipy's DOP853 states bit
for bit and reads Q once per step at all its stage abscissae.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import symplectic
from .brent import brentq
from .dop853 import solve_ivp
from .errors import (
    ContourError,
    CountMismatchError,
    InconsistencyError,
    NonHyperbolicError,
    OptionsError,
    PhaseStepError,
    SolverError,
)
from .models import check_essential_stability, potential_samples
from .symplectic import CrossingEvent

TRUNCATION_ADEQUACY = 1e-8
# recorded frames along one path; default runs record a few hundred
MAX_PATH_SAMPLES = 1_000_000
# potential samples behind the spectral ceiling lambda_inf
LAMBDA_MAX_SAMPLES = 4001
# largest spacing of recorded conjugate-path frames
SAMPLE_DX = 0.1


@dataclass(frozen=True)
class FlowOptions:
    """Numerical knobs for the frame evolution."""

    truncation: float = None     # half-width L of the computational domain
    rtol: float = 1e-8

    def resolve(self, model):
        """Fill in the truncation from the model decay rate and validate."""
        L = self.truncation
        if L is None:
            L = max(math.log(1.0 / TRUNCATION_ADEQUACY) * 1.12 / model.decay_rate, 10.0)
        if math.exp(-model.decay_rate * L) >= TRUNCATION_ADEQUACY:
            raise OptionsError(
                f"truncation L = {L} leaves tail weight "
                f"{math.exp(-model.decay_rate * L):.2e} >= {TRUNCATION_ADEQUACY:.0e}"
            )
        if 2.0 * L > MAX_PATH_SAMPLES:
            raise OptionsError(
                f"[{-L!r}, {L!r}] needs more than {MAX_PATH_SAMPLES} path samples "
                "at unit spacing"
            )
        return replace(self, truncation=float(L))

    def refined(self):
        """Halved tolerance; no caller here, the benchmark's spans wrap it."""
        return replace(self, rtol=self.rtol * 0.5)


@dataclass(frozen=True)
class SquareReport:
    """Crossing ledger for the four edges of the Maslov square.

    Events are stored as computed along increasing x (left/right edges) or
    increasing lambda (top/bottom edges); the net index accounts for the
    loop traversal, which runs backward along the right and bottom edges.
    """

    left_events: tuple
    top_events: tuple
    right_events: tuple
    bottom_events: tuple
    net_index: int
    lambda_star: float
    lambda_inf: float

    @property
    def consistent(self):
        return self.net_index == 0 and not self.right_events and not self.bottom_events


def _normalized_eigenbasis(q_matrix):
    """Eigen-decomposition with a deterministic sign convention."""
    vals, vecs = np.linalg.eigh(q_matrix)
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


def _asymptotic_frames(model, lams, side):
    """(K, 2n, n) unstable and stable frames and (K, n) rates over lams.

    For each eigenpair (q_i, v_i) of the limiting potential, the columns
    (v_i; +mu_i v_i) and (v_i; -mu_i v_i) with mu_i = sqrt(lambda - q_i)
    span the unstable and stable subspaces.  Real lams give real frames.
    """
    q_inf = model.q_minus if side == "minus" else model.q_plus
    vals, vecs = _normalized_eigenbasis(q_inf)
    lams = np.asarray(lams)
    mus = np.sqrt((lams[:, None] - vals[None, :]).astype(complex))
    if np.any(mus.real <= 0.0):
        raise NonHyperbolicError(
            f"some lambda does not clear the asymptotic potential eigenvalue "
            f"{vals.max():.6g} on side {side}: sqrt(lambda - q_i) has "
            "nonpositive real part"
        )
    if np.isrealobj(lams):
        mus = mus.real
    top = np.broadcast_to(vecs, (len(lams),) + vecs.shape)
    unstable = np.concatenate([top, vecs * mus[:, None, :]], axis=1)
    stable = np.concatenate([top, -vecs * mus[:, None, :]], axis=1)
    return unstable, stable, mus


def _unit_grid(x0, x1):
    """Points of [x0, x1] at the least count with spacing at most 1, both
    ends included."""
    return np.linspace(x0, x1, max(1, int(math.ceil(abs(x1 - x0)))) + 1)


def propagate(model, lams, frames, xs, opts, mirrored=0):
    """Frames of U' = J B(x; lambda_k) U at each x in xs, for all k at once.

    ``frames`` is the (K, 2n, n) stack at xs[0]; xs runs monotonically in
    either direction (``[x0, x1]`` for an endpoint-only sweep).  The last
    ``mirrored`` frames of the stack see Q(-x) in place of Q(x).  One DOP853
    run per segment carries the whole stack, real or complex, as one
    (2n, K n) matrix in row-major order: X_1 .. X_K side by side on top,
    Y_1 .. Y_K below, frame k in column block k, so that one frame keeps
    its own order.  Its right-hand side is Y on top and lambda X - Q X
    below, with one (n, n) @ (n, columns) product for Q(x) on the plain
    columns and one for Q(-x) on the mirrored ones; the stack goes into and
    out of that layout once per segment, never per call.  Q is sampled
    once per attempted step at its 11 stage abscissae, through
    ``potential_grid`` where the model has one and through ``q`` point by
    point otherwise, and with mirrored frames once more at their mirrors.
    The frames are re-orthonormalized by positive-diagonal QR at the
    segment's end.  The first segment may reach 1 unit of x; after that,
    the largest |log r_ii| of R's diagonal over the stack, against the
    budget ln(1/rtol) / 2, sets the next reach, at most four times the last
    segment's length.  A segment ends on the farthest x of xs within reach;
    if none is, on the farthest point of ``_unit_grid(xs[0], xs[-1])``
    within reach, and at least on the next one.  It starts with the
    previous one's last unclipped step and evaluates the dense polynomial
    only on the steps that hold a sample strictly inside it; the frame at
    xs[0] is the QR'd input.  Returns (len(xs), K, 2n, n) orthonormal
    frames.  Q is checked by ``potential_samples`` at xs[0], where DOP853
    would pick a NaN first step and never finish it, and, when a segment
    fails, at every stage abscissa of the last attempted step and at the
    segment's end; with mirrored frames, at the mirrors of those points
    too.
    """
    n = model.n
    shape = frames.shape
    k = shape[0]
    flat = (2 * n, k * n)
    lam_row = np.repeat(np.asarray(lams), n)
    # columns [0, split) read Q at x, columns [split, K n) at -x
    split = (k - mirrored) * n
    at = model.potential_grid
    if at is None:
        def at(points):
            return np.array([model.q(x) for x in points])

    def sample(ts):
        # Q at one DOP853 step's stage abscissae: one (n, n) matrix per
        # stage, or the pair (Q(x), Q(-x)) with mirrored frames; contiguous,
        # so that each product takes the BLAS path a fresh q(x) took
        if mirrored:
            return np.stack([at(ts), at(-ts)], axis=1)
        return np.ascontiguousarray(at(ts))

    def rhs(x, y, q_x):
        u = y.reshape(flat)
        out = np.empty_like(u)
        out[:n] = u[n:]
        top, bottom = u[:n], out[n:]
        np.multiply(lam_row, top, out=bottom)
        # one (n, n) @ (n, columns) product per Q: a stacked matmul over the
        # (K, 2n, n) frames would make one BLAS call per lambda
        if mirrored:
            bottom[:, :split] -= q_x[0] @ top[:, :split]
            bottom[:, split:] -= q_x[1] @ top[:, split:]
        else:
            bottom -= q_x @ top
        return out.ravel()

    def check(*points):
        potential_samples(model, points + tuple(-p for p in points) if mirrored else points)

    xs = np.asarray(xs, dtype=float)
    check(xs[0])
    u = symplectic.qr_positive(frames)
    out = np.empty((len(xs),) + shape, dtype=u.dtype)
    x0, x1 = xs[0], xs[-1]
    if x1 == x0:
        out[:] = u
        return out
    sign = math.copysign(1.0, x1 - x0)
    # xs and the unit grid as increasing distances along the sweep
    ts = sign * xs
    grid = sign * _unit_grid(x0, x1)
    budget = 0.5 * math.log(1.0 / opts.rtol)
    out[0] = u
    i = 1
    s0 = x0
    reach = 1.0
    step = None
    while i < len(xs):
        t0 = sign * s0
        j = int(np.searchsorted(ts, t0 + reach, side="right"))
        if j > i:
            s1 = xs[j - 1]
        else:
            # the farthest grid point within reach, and at least the next one
            g = max(np.searchsorted(grid, t0 + reach, side="right") - 1,
                    np.searchsorted(grid, t0, side="right"))
            s1 = sign * grid[g]
            j = int(np.searchsorted(ts, grid[g], side="right"))
        inner = xs[i : j - 1] if xs[j - 1] == s1 else xs[i:j]
        # Q and lambda do not change at s0: the last step the previous
        # segment chose freely holds its error control here as well
        sol = solve_ivp(
            rhs, (s0, s1), u.transpose(1, 0, 2).ravel(), points=inner, sample=sample,
            first_step=None if step is None else min(step, abs(s1 - s0)),
            rtol=opts.rtol, atol=opts.rtol * 1e-2,
        )
        if not sol.success:
            check(*sol.nodes, s1)
            raise SolverError(
                f"frame evolution failed on [{s0:.6g}, {s1:.6g}]: {sol.message}"
            )
        if len(sol.t) > 2:
            # the last step may be clipped at s1; the one before it is not
            step = abs(sol.t[-2] - sol.t[-3])
        ys = np.concatenate([sol.ys, sol.y[:, None]], axis=1)
        # the states in the columns of ys as (m, K, 2n, n) frames
        ys = ys.T.reshape(-1, 2 * n, k, n).swapaxes(1, 2)
        stack = symplectic.qr_positive(ys)
        out[i:j] = stack[: j - i]
        u = stack[-1]
        # |r_ii| = |q_i^H y_i|: column i's growth over the segment
        r = np.abs(np.einsum("kji,kji->ki", u.conj(), ys[-1]))
        growth = float(np.max(np.abs(np.log(r))))
        reach = abs(s1 - s0) * budget / max(growth, 0.25 * budget)
        s0 = s1
        i = j
    return out


def _sample_grid(model, lambda_, opts):
    """Positions of the recorded frames along [-L, L], the points of
    ``_unit_grid(-L, L)`` included."""
    L = opts.truncation
    # W-eigenvalue phases move at up to ~2 max(1, |Q - lambda|) per unit
    # x; keep sample steps under ~0.45 * pi/2 of that so crossings are
    # never skipped regardless of the potential's strength
    qs = potential_samples(model, np.linspace(-L, L, 201))
    bound = max(1.0, float(np.max(np.sum(np.abs(qs), axis=2))) + abs(lambda_))
    step = min(SAMPLE_DX, 0.7 / (2.0 * bound))
    if 2.0 * L > MAX_PATH_SAMPLES * step:
        raise OptionsError(
            f"lambda = {lambda_!r} on [-{L}, {L}] needs more than "
            f"{MAX_PATH_SAMPLES} path samples"
        )
    edges = _unit_grid(-L, L)
    xs = [edges[0]]
    for x0, x1 in zip(edges[:-1], edges[1:]):
        m = max(2, int(math.ceil((x1 - x0) / step)) + 1)
        xs.extend(np.linspace(x0, x1, m)[1:])
    return np.array(xs)


def _unstable_path(model, lambda_, opts):
    """Sample grid and frames of the plane decaying at -infinity."""
    xs = _sample_grid(model, lambda_, opts)
    lams = np.array([float(lambda_)])
    unstable, _, _ = _asymptotic_frames(model, lams, "minus")
    frames = propagate(model, lams, unstable, xs, opts)[:, 0]
    return xs, frames


def _crossing_phases(frames):
    """Signed phase of the W-eigenvalue nearest -1, for each frame of a stack."""
    betas = symplectic.eigenphases_from_minus_one(symplectic.unitary_reduction(frames))
    nearest = np.argmin(np.abs(betas), axis=1)
    return betas[np.arange(len(betas)), nearest]


def _refine_crossing(model, lambda_, x_lo, frame_lo, x_hi, xtol, opts):
    """Root of the crossing phase on [x_lo, x_hi], re-integrating from the
    recorded frame at x_lo for every trial point."""
    lams = np.array([float(lambda_)])

    def beta(x):
        frames = propagate(model, lams, frame_lo[None], [x_lo, x], opts)[-1]
        return float(_crossing_phases(frames)[0])

    b_lo = beta(x_lo)
    b_hi = beta(x_hi)
    if b_lo == 0.0:
        return x_lo
    if b_hi == 0.0 or np.sign(b_lo) == np.sign(b_hi):
        return x_hi
    # brentq starts from both ends: x_lo integrates nothing, x_hi is known
    return brentq(lambda x: b_hi if x == x_hi else beta(x), x_lo, x_hi, xtol=xtol)


def _angle_count(model, lambda_, xs, frames):
    """Conjugate-point count N (a float) of the orthonormal path frames
    (X; Y) from the matrix Prufer angle Theta = arg det(X + iY).

    Theta' = tr(X^T (lambda - Q) X) - tr(Y^T Y), unchanged by positive-
    diagonal QR, is integrated by the trapezoid rule.  det W = e^{-2i Theta}
    and each crossing drops the sum of W's eigen-angles phi in (-pi, pi] by
    2 pi, so N = (sum phi(x_0) - sum phi(x_end) - 2 Delta Theta) / 2 pi.
    Q is read at the samples through ``potential_samples``.
    """
    n = model.n
    x, y = frames[:, :n], frames[:, n:]
    qs = potential_samples(model, xs)
    shifted = lambda_ * np.eye(n) - qs
    rates = np.einsum("kji,kjl,kli->k", x, shifted, x) - np.sum(y * y, axis=(1, 2))
    turn = np.trapezoid(rates, xs)
    ends = np.angle(np.linalg.eigvals(symplectic.unitary_reduction(frames[[0, -1]])))
    return float((ends[0].sum() - ends[1].sum() - 2.0 * turn) / (2.0 * np.pi))


def detect_conjugate_points(model, lambda_star, opts=None):
    """Conjugate points of the evolved plane, as crossing events in x.

    Crossings are found from W-eigenvalue phases and refined by root
    finding on the phase, re-integrated from the nearest recorded frame.
    Their signed count must lie within 0.1 of the matrix Prufer angle count
    ``_angle_count`` on the same frames, or CountMismatchError is raised.
    """
    opts = (opts or FlowOptions()).resolve(model)
    return _conjugate_points_and_path(model, lambda_star, opts)[0]


def _conjugate_points_and_path(model, lambda_star, opts):
    """Conjugate points and the (xs, frames) path they were counted on.

    ``opts`` must be resolved.  One path is integrated; its crossings are
    certified by the angle count before they are refined.
    """
    xs, frames = _unstable_path(model, lambda_star, opts)
    result = symplectic.path_maslov_index(frames, xs)
    angle = _angle_count(model, lambda_star, xs, frames)
    if not abs(angle - result.index) < 0.1:
        raise CountMismatchError(
            f"matrix Prufer angle count {angle:.6f} disagrees with the "
            f"{result.index} signed w-eigenvalue crossings at lambda = {lambda_star!r}"
        )
    span = xs[-1] - xs[0]
    xtol = max(1e-12 * span, 1e-13)
    refined = []
    for ev in result.events:
        k = int(np.searchsorted(xs, ev.param, side="right")) - 1
        k = min(max(k, 0), len(xs) - 2)
        x_star = _refine_crossing(model, lambda_star, xs[k], frames[k], xs[k + 1],
                                  xtol, opts)
        refined.append(CrossingEvent(float(x_star), ev.multiplicity, ev.direction))
    events = symplectic._merge_events(refined, span, merge_tol=1e-7)
    return tuple(events), (xs, frames)


def lambda_max_bound(model, truncation):
    """lambda_inf = 1 + sup_x max-eig Q(x) on [-L, L]: no spectrum above it."""
    qs = potential_samples(model, np.linspace(-truncation, truncation,
                                              LAMBDA_MAX_SAMPLES))
    tops = qs[:, 0, 0] if model.n == 1 else np.linalg.eigvalsh(qs)[:, -1]
    return 1.0 + float(np.max(tops))


def lambda_ceiling(model, lambda_star, truncation):
    """Spectral level lambda_inf closing the count region above lambda_star.

    The Rayleigh bound can fall below lambda_star for strongly negative
    potentials; any level above the spectrum works, so it is lifted to at
    least lambda_star + 1.
    """
    return max(lambda_max_bound(model, truncation), lambda_star + 1.0)


def evans_determinant(model, lams, opts, xs):
    """Evans values det[U_-(0) | U_+(0)] over lams, and U_- at xs, as
    (len(xs), K, 2n, n).

    xs runs from -L to 0, both included; ``(-L, 0.0)`` asks for no frame
    inside, so no interpolant is built.  U_- spans the solutions decaying
    at -infinity, evolved forward from -L; U_+ those decaying at +infinity.
    If U = (X; Y) solves U' = J B(x) U, then (X(-t); -Y(-t)) solves it with
    Q(-t) in place of Q(t): U_+'s stable frame (v; -mu_+ v) at +L becomes
    (v; +mu_+ v) at t = -L, so U_- and the reflected U_+ ride in one
    ``propagate`` of 2K frames over xs, and negating Y at t = 0 gives
    U_+(0) back.  Both come out orthonormalized, which rescales the
    determinant by a positive factor only.  Starting from (v; +-mu v) at
    -+L instead of from the solutions normalized at infinity multiplies the
    determinant by e^{(sum mu_- + sum mu_+) L}; the unit-modulus factor
    e^{-iL Im(sum mu_- + sum mu_+)} takes its phase out again, so the
    value is analytic in lambda up to a positive factor and its phase does
    not swing along a contour.  For real lams that factor is 1.
    """
    L = opts.truncation
    k, n = len(lams), model.n
    unstable, _, mu_minus = _asymptotic_frames(model, lams, "minus")
    reflected, _, mu_plus = _asymptotic_frames(model, lams, "plus")
    frames = propagate(model, np.concatenate([lams, lams]),
                       np.concatenate([unstable, reflected]), xs, opts, mirrored=k)
    u_plus = frames[-1, k:] * np.repeat([1.0, -1.0], n)[:, None]
    values = np.linalg.det(np.concatenate([frames[-1, :k], u_plus], axis=2))
    if np.iscomplexobj(values):
        swing = L * (mu_minus.sum(axis=1) + mu_plus.sum(axis=1)).imag
        values = values * np.exp(-1j * swing)
    return values, frames[:, :k]


ZERO_MARGIN = 1e-10
# least distance of a contour from the essential spectrum
CONTOUR_MARGIN = 1e-6
# midpoint-insertion rounds a contour winding may take
MAX_REFINE = 3


@dataclass(frozen=True)
class Contour:
    """Circle in the spectral plane, sampled counterclockwise."""

    center: complex
    radius: float
    samples: int = 256

    def __post_init__(self):
        if not self.radius > 0:
            raise ContourError(f"contour radius {self.radius!r} must be positive")
        if self.samples < 8:
            raise ContourError("need at least 8 contour samples")
        # the four extreme points bound every other one
        extremes = self.point(np.arange(4) / 4)
        if not np.all(np.isfinite(extremes)):
            raise ContourError(
                f"contour around {self.center!r} with radius {self.radius!r} "
                "leaves the finite floats"
            )
        right, top, left, bottom = extremes
        if not (left.real < right.real and bottom.imag < top.imag):
            raise ContourError(
                f"contour around {self.center!r} with radius {self.radius!r} "
                "collapses below the float spacing of its centre"
            )

    @classmethod
    def enclosing(cls, lo, hi, samples=256):
        """Circle through the real points lo and hi."""
        return cls(center=complex(0.5 * (lo + hi)), radius=0.5 * (hi - lo),
                   samples=samples)

    def point(self, t):
        return self.center + self.radius * np.exp(2j * np.pi * np.asarray(t))


def validate_contour(model, contour):
    """Reject contours that come within CONTOUR_MARGIN of the essential
    spectrum (-inf, max eig] anywhere along the circle, or that the
    truncated Evans function cannot resolve."""
    floor = TRUNCATION_ADEQUACY * max(1.0, abs(contour.center))
    if contour.radius < floor:
        raise ContourError(
            f"contour radius {contour.radius!r} lies below TRUNCATION_ADEQUACY * max(1, "
            f"|center|) = {floor:.3e}, the least the truncated Evans function resolves"
        )
    max_eig = check_essential_stability(model).max_eig_qinf
    # the half-line is unbounded, so the disc cannot hold it: the circle
    # misses it by the centre's distance less the radius
    c = complex(contour.center)
    reach = abs(c - max_eig) if c.real > max_eig else abs(c.imag)
    gap = reach - contour.radius
    if not gap > CONTOUR_MARGIN:
        raise ContourError(
            f"contour around {c:.6g} with radius {contour.radius:.6g} keeps a gap "
            f"of {gap:.3e} <= {CONTOUR_MARGIN:.0e} from the essential spectrum "
            f"(-inf, {max_eig:.6g}] (a negative gap crosses it)"
        )


def _contour_params(samples):
    """Closed-loop parameters clustered near t = 0 and t = 1/2.

    The operators here are self-adjoint, so Evans zeros sit on the real
    axis, which the contour crosses at those two parameters; cubic
    clustering there keeps phase steps small without global oversampling.
    """
    u = np.arange(samples + 1) / samples
    return u - np.sin(4.0 * np.pi * u) / (4.0 * np.pi)


def _integrated_points(contour):
    """Points whose Evans values are integrated for a contour.

    Q is real, so E(conj lambda) = conj E(lambda): on a contour centred on
    the real axis, conjugation maps parameter index k to m - k, and only
    indices 0 .. m//2 are integrated.  With odd m no base parameter falls
    on t = 1/2, so that real-axis crossing follows as one more point.
    ``_closed_loop`` supplies the rest.
    """
    m = contour.samples
    ts = _contour_params(m)
    if contour.center.imag != 0:
        return contour.point(ts[:m])
    ts = ts[: m // 2 + 1]
    return contour.point(np.append(ts, 0.5) if m % 2 else ts)


def _closed_loop(contour, integrated):
    """Parameters, Evans values and base-sample mask around the closed
    contour, from the values at ``_integrated_points``.

    The m base samples come in parameter order and t = 1 repeats t = 0; on
    a real-centred contour with odd m the value at t = 1/2 sits between
    them as a non-base sample.
    """
    m = contour.samples
    ts = _contour_params(m)
    values = integrated
    if contour.center.imag == 0:
        values = np.concatenate([integrated[: m // 2 + 1],
                                 np.conj(integrated[1 : (m + 1) // 2][::-1])])
    values = np.append(values, values[0])
    base = np.arange(m + 1) < m
    if contour.center.imag == 0 and m % 2:
        k = (m + 1) // 2
        ts, values, base = (np.insert(ts, k, 0.5), np.insert(values, k, integrated[-1]),
                            np.insert(base, k, False))
    return ts, values, base


def _refined_contour_values(model, contour, opts, integrated=None):
    """Evans values around the closed contour and a mask of the base
    samples among them.

    Samples the contour (or takes the values at ``_integrated_points``
    evaluated elsewhere), then inserts midpoints wherever consecutive phase
    steps reach pi/2, at most MAX_REFINE rounds.  Every round rejects a
    contour passing within the zero margin of an Evans zero.
    """
    validate_contour(model, contour)
    # the winding reads E only: no frame inside [-L, 0]
    sweep = (-opts.truncation, 0.0)
    if integrated is None:
        integrated = evans_determinant(model, _integrated_points(contour), opts, sweep)[0]
    ts, values, base = _closed_loop(contour, integrated)
    rounds = 0
    while True:
        mags = np.abs(values)
        if np.min(mags) <= ZERO_MARGIN * np.max(mags):
            raise ContourError(
                f"contour passes within the zero margin of an Evans zero "
                f"(min |E| = {np.min(mags):.3e}, max |E| = {np.max(mags):.3e})"
            )
        diffs = symplectic._wrap_pi(np.diff(np.angle(values)))
        bad = np.nonzero(np.abs(diffs) >= np.pi / 2)[0]
        if len(bad) == 0:
            return values, base
        if rounds >= MAX_REFINE:
            raise PhaseStepError(
                f"{len(bad)} phase steps still reach pi/2 after {MAX_REFINE} "
                "refinement rounds"
            )
        mid_ts = 0.5 * (ts[bad] + ts[bad + 1])
        mid_vals = evans_determinant(model, contour.point(mid_ts % 1.0), opts, sweep)[0]
        ts = np.insert(ts, bad + 1, mid_ts)
        values = np.insert(values, bad + 1, mid_vals)
        base = np.insert(base, bad + 1, False)
        rounds += 1


def _winding_and_values(model, contour, opts, integrated=None):
    """Winding number and the Evans values at the m base samples.

    ``opts`` must be resolved.  The final accumulated phase must sit within
    0.1 of a nonnegative integer multiple of 2 pi.
    """
    values, base = _refined_contour_values(model, contour, opts, integrated)
    total = float(np.sum(symplectic._wrap_pi(np.diff(np.angle(values)))))
    winding = total / (2.0 * np.pi)
    nearest = int(np.round(winding))
    if abs(winding - nearest) >= 0.1:
        raise PhaseStepError(
            f"accumulated phase {winding:.4f} turns is not within 0.1 of an integer"
        )
    # E is analytic inside a contour that avoids the essential spectrum, so
    # its winding counts zeros; a negative one is an undersampled contour
    if nearest < 0:
        raise PhaseStepError(
            f"winding {nearest} is negative: the contour is undersampled"
        )
    return nearest, values[base]


def _top_edge(model, lambda_star, lambda_inf, opts):
    """Eigenvalue crossings on the top edge of the square, x = +L.

    At x = +L the W-eigenvalue passes -1 inside a lambda-window of width
    ~ e^{-2 mu L}, far below float resolution, so the crossings are counted
    as zeros of the Evans function.  A 129-point sweep of E matched at
    x = 0, where it is smooth in lambda, flags every cell with a sign change
    or next to an interior local minimum of |E|.  The winding of E around a
    circle over each run of flagged cells, widened by half a cell, counts
    its zeros.  Winding w with w sign changes on a 33-point real sub-grid
    gives w simple events; fewer give one event of multiplicity w at the
    sub-grid minimum of |E|; more raise CountMismatchError.  Directions are
    the drift of the W-eigenvalue of U_-(+L) nearest -1 across the run
    (eigenvalue crossings come out -1, opposite to conjugate points).
    lambda_inf's column rides along from -L to +L for ``_right_edge_empty``.
    """
    L = opts.truncation
    lams = np.linspace(lambda_star, lambda_inf, 129)
    grid = _unit_grid(-L, 0.0)
    evans, left = evans_determinant(model, lams, opts, grid)
    size = np.abs(evans)
    flagged = np.sign(evans[:-1]) * np.sign(evans[1:]) < 0
    dips = (size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])
    flagged[:-1] |= dips
    flagged[1:] |= dips
    steps = np.diff(np.concatenate([[0], flagged.astype(int), [0]]))
    # (first, last) grid points of each run of flagged cells
    spans = np.stack([np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)], axis=1)
    cols = np.append(spans.ravel(), len(lams) - 1)
    right = propagate(model, lams[cols], left[-1, cols], _unit_grid(0.0, L), opts)
    xs = np.concatenate([grid, _unit_grid(0.0, L)[1:]])
    _right_edge_empty(xs, np.concatenate([left[:, -1], right[1:, -1]]), lambda_inf)
    if len(spans) == 0:
        return ()
    half = 0.5 * (lams[1] - lams[0])
    ends = [(max(lams[lo] - half, lambda_star), min(lams[hi] + half, lambda_inf))
            for lo, hi in spans]
    contours = [Contour.enclosing(a, b, samples=32) for a, b in ends]
    subs = [np.linspace(a, b, 33) for a, b in ends]
    circles = [_integrated_points(c) for c in contours]
    values = evans_determinant(model, np.concatenate(circles + subs), opts, (-L, 0.0))[0]
    on_circle = np.split(values[: sum(map(len, circles))], len(spans))
    on_axis = np.split(values[sum(map(len, circles)):].real, len(spans))
    phases = _crossing_phases(right[-1, :-1])
    events = []
    for k, (contour, sub, vals) in enumerate(zip(contours, subs, on_axis)):
        winding, _ = _winding_and_values(model, contour, opts, integrated=on_circle[k])
        # a sample within the zero margin sits on a zero: its sign is noise
        mags = np.abs(vals)
        signs = np.where(mags > ZERO_MARGIN * np.max(mags), np.sign(vals), 0.0)
        signed = np.flatnonzero(signs)
        hits = np.flatnonzero(signs[signed[:-1]] * signs[signed[1:]] < 0)
        if len(hits) > winding:
            raise CountMismatchError(
                f"{len(hits)} sign changes of the Evans function on "
                f"[{sub[0]:.6g}, {sub[-1]:.6g}] exceed its winding {winding}"
            )
        if winding == 0:
            continue
        drift = symplectic._wrap_pi(np.diff(phases[2 * k : 2 * k + 2]))[0]
        direction = -1 if drift < 0 else 1
        if len(hits) < winding:
            events.append(CrossingEvent(float(sub[np.argmin(mags)]), winding,
                                        direction))
            continue
        lo, hi = signed[hits], signed[hits + 1]
        a, b, fa, fb = sub[lo], sub[hi], vals[lo], vals[hi]
        events.extend(CrossingEvent(float(root), 1, direction)
                      for root in a - fa * (b - a) / (fb - fa))
    return tuple(events)


def _right_edge_empty(xs, frames, lambda_inf):
    """Raise unless sym(X^T Y) = X^T S X > DIRICHLET_TOL on every frame of
    U_-(x; lambda_inf) at xs: then S = Y X^-1 stays positive definite.

    The top edge passes the 2 ceil(L) + 1 points of the unit grids of
    [-L, 0] and [0, L], however long the segments that reached them were."""
    n = frames.shape[-1]
    xty = np.swapaxes(frames[:, :n], 1, 2) @ frames[:, n:]
    lows = np.linalg.eigvalsh(0.5 * (xty + np.swapaxes(xty, 1, 2)))[:, 0]
    k = int(np.argmin(lows))
    if not lows[k] > symplectic.DIRICHLET_TOL:
        raise InconsistencyError(
            f"unstable frame at lambda_inf = {lambda_inf!r} leaves S = Y X^-1 > 0 "
            f"at x = {xs[k]:.4g}: smallest eigenvalue of sym(X^T Y) is "
            f"{lows[k]:.3e} (limit {symplectic.DIRICHLET_TOL:.0e})"
        )


def maslov_square(model, lambda_star, opts=None):
    """Crossing ledger around the boundary of the Maslov square.

    Left edge: conjugate points at lambda_star (x increasing).  Top edge:
    eigenvalues in (lambda_star, lambda_inf) at x = +L (lambda increasing).
    The right and bottom edges are certified empty, the right one by
    S = Y X^-1 > 0 on the top edge's frames at lambda_inf (``_right_edge_empty``),
    so their events stay ().  The bottom edge needs no check: its frames are
    X = V, Y = V diag(mu) with mu > 0, so S(-L) > 0 and X is never singular.
    The net index around the loop must be zero; a nonzero value is
    reported, never corrected.
    """
    opts = (opts or FlowOptions()).resolve(model)
    lambda_inf = lambda_ceiling(model, lambda_star, opts.truncation)
    left = detect_conjugate_points(model, lambda_star, opts)
    top = _top_edge(model, lambda_star, lambda_inf, opts)
    net = sum(e.signed_count for e in left) + sum(e.signed_count for e in top)
    return SquareReport(
        left_events=left,
        top_events=top,
        right_events=(),
        bottom_events=(),
        net_index=int(net),
        lambda_star=float(lambda_star),
        lambda_inf=float(lambda_inf),
    )
