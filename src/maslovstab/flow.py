"""Evolution of the unstable-solution Lagrangian plane and the Maslov square.

The eigenvalue problem lambda v = v_xx + Q(x) v becomes the first-order
Hamiltonian system u' = J B(x; lambda) u with

    J B = [[0, I], [lambda I - Q(x), 0]],

whose asymptotic matrices are hyperbolic whenever lambda sits above the
essential spectrum.  The plane of solutions decaying at -infinity is
initialized from the unstable eigenspace at x = -L and evolved across
[-L, L]; conjugate points are the x-values where it meets the Dirichlet
plane.  The boundary of the rectangle [lambda_*, lambda_inf] x [-L, L]
is a contractible loop, so its net Maslov index must vanish: conjugate
points on the left edge (+1 each) balance eigenvalue crossings on the top
edge (-1 each), and the right and bottom edges stay empty.  The top edge
counts its crossings as zeros of the Evans function, by the same contour
winding routine that serves the Evans channel (``evans``).

Frame stabilization: the evolved 2n x n frame is re-orthonormalized every
``renorm_every`` units of x by a QR factorization with positive diagonal,
which preserves the column span exactly and keeps the exponential growth
of individual columns from destroying the plane.
"""

import gc
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import symplectic
from .errors import (
    ContourError,
    CountMismatchError,
    InconsistencyError,
    NonHyperbolicError,
    OptionsError,
    PhaseStepError,
    SolverError,
)
from .models import check_essential_stability
from .symplectic import CrossingEvent

TRUNCATION_ADEQUACY = 1e-8
# recorded frames along one path; default runs record a few hundred
MAX_PATH_SAMPLES = 1_000_000
# potential samples behind the spectral ceiling lambda_inf
LAMBDA_MAX_SAMPLES = 4001
# asymptotic frames checked along the bottom edge of the square
BOTTOM_EDGE_SAMPLES = 65


@dataclass(frozen=True)
class FlowOptions:
    """Numerical knobs for the frame evolution."""

    truncation: float = None     # half-width L of the computational domain
    rtol: float = 1e-8
    renorm_every: float = 1.0    # x-distance between re-orthonormalizations
    sample_dx: float = 0.1       # spacing of recorded frames

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
        return replace(self, truncation=float(L))

    def refined(self):
        return replace(self, rtol=self.rtol * 0.5, renorm_every=self.renorm_every * 0.5,
                       sample_dx=self.sample_dx * 0.5)


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


@dataclass(frozen=True)
class SpectralReport:
    """Unstable-eigenvalue counts from the independent channels."""

    conjugate_count: int
    winding_count: int = None
    oracle_count: int = None
    epsilon_shift: float = 1e-3
    lambda_inf: float = None
    events: tuple = ()

    @property
    def agree(self):
        counts = {
            c for c in (self.conjugate_count, self.winding_count, self.oracle_count)
            if c is not None
        }
        return len(counts) == 1


def system_matrix(model, x, lambda_):
    """J B(x; lambda) = [[0, I], [lambda I - Q(x), 0]]."""
    n = model.n
    out = np.zeros((2 * n, 2 * n))
    out[:n, n:] = np.eye(n)
    out[n:, :n] = lambda_ * np.eye(n) - model.q(x)
    return out


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


def asymptotic_splitting(model, lambda_, side="minus"):
    """Unstable and stable (2n, n) frames and decay rates of the asymptotic system.

    Both frames are Lagrangian planes; see ``_asymptotic_frames``.
    """
    unstable, stable, mus = _asymptotic_frames(model, np.array([float(lambda_)]), side)
    if not np.all(symplectic.check_lagrangian(np.concatenate([unstable, stable])).passed):
        raise NonHyperbolicError("asymptotic frame failed the Lagrangian check")
    return unstable[0], stable[0], mus[0]


def propagate(model, lams, frames, xs, opts):
    """Frames of U' = J B(x; lambda_k) U at each x in xs, for all k at once.

    ``frames`` is the (K, 2n, n) stack at xs[0]; xs runs monotonically in
    either direction (``[x0, x1]`` for an endpoint-only sweep).  One DOP853
    run per renormalization segment carries the whole stack, real or
    complex; the frames are re-orthonormalized by positive-diagonal QR every
    ``renorm_every`` units of x.  Returns (len(xs), K, 2n, n) orthonormal
    frames.
    """
    n = model.n
    shape = frames.shape
    lam_col = np.asarray(lams)[:, None, None]
    q = model.q

    def rhs(x, y):
        u = y.reshape(shape)
        out = np.empty_like(u)
        out[:, :n] = u[:, n:]
        out[:, n:] = lam_col * u[:, :n] - q(x) @ u[:, :n]
        return out.ravel()

    xs = np.asarray(xs, dtype=float)
    u = symplectic.qr_positive(frames)
    out = np.empty((len(xs),) + shape, dtype=u.dtype)
    x0, x1 = xs[0], xs[-1]
    if x1 == x0:
        out[:] = u
        return out
    sign = math.copysign(1.0, x1 - x0)
    n_seg = max(1, int(math.ceil(abs(x1 - x0) / opts.renorm_every)))
    edges = np.linspace(x0, x1, n_seg + 1)
    i = 0
    for s0, s1 in zip(edges[:-1], edges[1:]):
        j = int(np.searchsorted(sign * xs, sign * s1, side="right"))
        t_eval = xs[i:j] if j > i and xs[j - 1] == s1 else np.append(xs[i:j], s1)
        sol = solve_ivp(
            rhs, (s0, s1), u.ravel(), method="DOP853", t_eval=t_eval,
            rtol=opts.rtol, atol=opts.rtol * 1e-2,
        )
        if not sol.success:
            raise SolverError(
                f"frame evolution failed near x = {sol.t[-1]:.6g}: {sol.message}"
            )
        # the finished solver refers to itself through its RHS wrapper; free
        # its stage arrays now instead of letting them pile up until a full
        # collection
        gc.collect(1)
        stack = symplectic.qr_positive(sol.y.T.reshape((-1,) + shape))
        out[i:j] = stack[: j - i]
        u = stack[-1]
        i = j
    return out


def _sample_grid(model, lambda_, opts):
    """Positions of the recorded frames along [-L, L], renormalization
    points included."""
    L = opts.truncation
    # W-eigenvalue phases move at up to ~2 max(1, |Q - lambda|) per unit
    # x; keep sample steps under ~0.45 * pi/2 of that so crossings are
    # never skipped regardless of the potential's strength
    qs = np.array([model.q(x) for x in np.linspace(-L, L, 201)])
    row_sums = np.max(np.sum(np.abs(qs), axis=2), axis=1)
    # a NaN sample bounds nothing: fmax skips it
    bound = max(1.0, float(np.fmax.reduce(row_sums)) + abs(lambda_))
    step = min(opts.sample_dx, 0.7 / (2.0 * bound))
    n_seg = max(1, int(math.ceil(2.0 * L / opts.renorm_every)))
    if 2.0 * L > MAX_PATH_SAMPLES * step:
        raise OptionsError(
            f"lambda = {lambda_!r} on [-{L}, {L}] needs more than "
            f"{MAX_PATH_SAMPLES} path samples"
        )
    edges = np.linspace(-L, L, n_seg + 1)
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


def evolve_unstable_frame(model, lambda_, opts=None):
    """Sampled path of the plane of solutions decaying at -infinity.

    Returns the sample positions xs and the (len(xs), 2n, n) stack of
    orthonormalized frames.  Raises if the Lagrangian residual drifts beyond
    ten times the frame tolerance anywhere along the path.
    """
    opts = (opts or FlowOptions()).resolve(model)
    return _checked_path(*_unstable_path(model, lambda_, opts))


def _checked_path(xs, frames):
    """The sampled path (xs, frames), drift-checked in one batch."""
    drifts = symplectic.check_lagrangian(frames).asymmetry
    k = int(np.argmax(drifts))
    if drifts[k] > 10.0 * symplectic.LAGR_TOL:
        raise InconsistencyError(
            f"Lagrangian residual drifted to {drifts[k]:.3e} at x = {xs[k]:.4g} "
            f"(limit {10.0 * symplectic.LAGR_TOL:.1e}); reduce rtol or renorm_every"
        )
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
    return brentq(beta, x_lo, x_hi, xtol=xtol)


def _det_a_sign_changes(frames, n):
    signs = np.sign(np.linalg.det(frames[:, :n]))
    s = signs[signs != 0]
    return int(np.sum(s[:-1] * s[1:] < 0))


def _detect_events(model, lambda_star, opts):
    xs, frames = _unstable_path(model, lambda_star, opts)
    result = symplectic.path_maslov_index(frames, xs)
    span = xs[-1] - xs[0]
    xtol = max(1e-12 * span, 1e-13)
    refined = []
    for ev in result.events:
        k = int(np.searchsorted(xs, ev.param, side="right")) - 1
        k = min(max(k, 0), len(xs) - 2)
        x_star = _refine_crossing(model, lambda_star, xs[k], frames[k], xs[k + 1],
                                  xtol, opts)
        refined.append(CrossingEvent(float(x_star), ev.multiplicity, ev.direction))
    merged = symplectic._merge_events(refined, span, merge_tol=1e-7)
    det_changes = _det_a_sign_changes(frames, model.n)
    odd_events = sum(1 for e in merged if e.multiplicity % 2 == 1)
    return tuple(merged), det_changes, odd_events, (xs, frames)


def detect_conjugate_points(model, lambda_star, opts=None):
    """Conjugate points of the evolved plane, as crossing events in x.

    Crossings are found from W-eigenvalue phases and refined by root
    finding on the phase, re-integrated from the nearest recorded frame;
    the count must agree with the number of sign changes of det(a_block)
    along the path.  On disagreement the evolution is retried once at
    halved tolerances, then aborts.
    """
    opts = (opts or FlowOptions()).resolve(model)
    return _conjugate_points_and_path(model, lambda_star, opts)[0]


def _conjugate_points_and_path(model, lambda_star, opts):
    """Conjugate points and the (xs, frames) path of the first attempt.

    ``opts`` must be resolved.  The path is the one ``_unstable_path``
    records at ``opts``, also when the detection is retried.
    """
    events, det_changes, odd_events, path = _detect_events(model, lambda_star, opts)
    if det_changes != odd_events:
        events, det_changes, odd_events, _ = _detect_events(
            model, lambda_star, opts.refined()
        )
        if det_changes != odd_events:
            raise CountMismatchError(
                f"det(a) sign changes ({det_changes}) disagree with refined "
                f"w-eigenvalue crossings ({odd_events}) at lambda = {lambda_star!r}"
            )
    return events, path


def lambda_max_bound(model, truncation=None):
    """lambda_inf = 1 + sup_x max-eig Q(x): no spectrum above it."""
    L = truncation
    if L is None:
        L = FlowOptions().resolve(model).truncation
    qs = np.array([model.q(x) for x in np.linspace(-L, L, LAMBDA_MAX_SAMPLES)])
    tops = qs[:, 0, 0] if model.n == 1 else np.linalg.eigvalsh(qs)[:, -1]
    # a NaN sample bounds nothing: fmax skips it
    return 1.0 + float(np.fmax.reduce(tops, initial=-np.inf))


def lambda_ceiling(model, lambda_star, truncation):
    """Spectral level lambda_inf closing the count region above lambda_star.

    The Rayleigh bound can fall below lambda_star for strongly negative
    potentials; any level above the spectrum works, so it is lifted to at
    least lambda_star + 1.
    """
    return max(lambda_max_bound(model, truncation=truncation), lambda_star + 1.0)


def evans_determinant(model, lams, opts, x_match):
    """Evans values det[U_-(x_match) | U_+(x_match)] over lams, and U_-.

    U_- spans the solutions decaying at -infinity, evolved forward from -L;
    U_+ those decaying at +infinity, evolved backward from +L.  Both come
    out orthonormalized, which rescales the determinant by a positive
    factor only.
    """
    L = opts.truncation
    unstable, _, _ = _asymptotic_frames(model, lams, "minus")
    _, stable, _ = _asymptotic_frames(model, lams, "plus")
    u_minus = propagate(model, lams, unstable, [-L, x_match], opts)[-1]
    s_plus = propagate(model, lams, stable, [L, x_match], opts)[-1]
    return np.linalg.det(np.concatenate([u_minus, s_plus], axis=2)), u_minus


def _evans_values(model, lams, opts, x_match=0.0):
    """Batched Evans determinants at the given (complex) lambda values."""
    lams = np.asarray(lams, dtype=complex)
    return evans_determinant(model, lams, opts, x_match)[0]


ZERO_MARGIN = 1e-10
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

    @classmethod
    def enclosing(cls, lo, hi, samples=256):
        """Circle through the real points lo and hi."""
        return cls(center=complex(0.5 * (lo + hi)), radius=0.5 * (hi - lo),
                   samples=samples)

    def point(self, t):
        return self.center + self.radius * np.exp(2j * np.pi * np.asarray(t))


def validate_contour(model, contour, margin=1e-6):
    """Reject contours that touch the essential spectrum (-inf, max eig]."""
    max_eig = check_essential_stability(model).max_eig_qinf
    pts = contour.point(np.arange(contour.samples) / contour.samples)
    re, im = pts.real, pts.imag
    dist = np.where(re > max_eig, np.abs(pts - max_eig), np.abs(im))
    bad = ~((re > max_eig) | (dist > margin))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ContourError(
            f"contour point {pts[k]:.6g} touches the essential spectrum "
            f"(-inf, {max_eig:.6g}]"
        )


def _wrapped_diffs(phases):
    d = np.diff(phases)
    return np.arctan2(np.sin(d), np.cos(d))


def _contour_params(samples):
    """Closed-loop parameters clustered near t = 0 and t = 1/2.

    The operators here are self-adjoint, so Evans zeros sit on the real
    axis, which the contour crosses at those two parameters; cubic
    clustering there keeps phase steps small without global oversampling.
    """
    u = np.arange(samples + 1) / samples
    return u - np.sin(4.0 * np.pi * u) / (4.0 * np.pi)


def _integrated_points(contour):
    """Points at the base parameters whose Evans values are integrated.

    Q is real, so E(conj lambda) = conj E(lambda): on a contour centred on
    the real axis, conjugation maps parameter index k to m - k, and only
    indices 0 .. m//2 are integrated; ``_mirrored`` supplies the rest.
    """
    m = contour.samples
    stop = m // 2 + 1 if contour.center.imag == 0 else m
    return contour.point(_contour_params(m)[:stop])


def _mirrored(values, contour):
    """The m open base values (t = 1 excluded) from those at the integrated points."""
    if contour.center.imag != 0:
        return values
    m = contour.samples
    return np.concatenate([values, np.conj(values[1 : (m + 1) // 2][::-1])])


def _refined_contour_values(model, contour, opts, x_match, integrated=None):
    """Evans values around the closed contour and a mask of the base
    samples among them.

    Samples the contour (or takes the values at ``_integrated_points``
    evaluated elsewhere), then inserts midpoints wherever consecutive phase
    steps reach pi/2, at most MAX_REFINE rounds.  Every round rejects a
    contour passing within the zero margin of an Evans zero.
    """
    validate_contour(model, contour)
    ts = _contour_params(contour.samples)
    if integrated is None:
        integrated = _evans_values(model, _integrated_points(contour), opts,
                                   x_match=x_match)
    base_values = _mirrored(integrated, contour)
    values = np.append(base_values, base_values[0])  # closed: t=1 repeats t=0
    base = np.arange(len(values)) < contour.samples
    rounds = 0
    while True:
        mags = np.abs(values)
        if np.min(mags) <= ZERO_MARGIN * np.max(mags):
            raise ContourError(
                f"contour passes within the zero margin of an Evans zero "
                f"(min |E| = {np.min(mags):.3e}, max |E| = {np.max(mags):.3e})"
            )
        diffs = _wrapped_diffs(np.angle(values))
        bad = np.nonzero(np.abs(diffs) >= np.pi / 2)[0]
        if len(bad) == 0:
            return values, base
        if rounds >= MAX_REFINE:
            raise PhaseStepError(
                f"{len(bad)} phase steps still reach pi/2 after {MAX_REFINE} "
                "refinement rounds"
            )
        mid_ts = 0.5 * (ts[bad] + ts[bad + 1])
        mid_vals = _evans_values(model, contour.point(mid_ts % 1.0), opts,
                                 x_match=x_match)
        ts = np.insert(ts, bad + 1, mid_ts)
        values = np.insert(values, bad + 1, mid_vals)
        base = np.insert(base, bad + 1, False)
        rounds += 1


def _winding_and_values(model, contour, opts, x_match=0.0, integrated=None):
    """Winding number and the Evans values at the m base samples.

    ``opts`` must be resolved.  The final accumulated phase must sit within
    0.1 of a nonnegative integer multiple of 2 pi.
    """
    values, base = _refined_contour_values(model, contour, opts, x_match, integrated)
    total = float(np.sum(_wrapped_diffs(np.angle(values))))
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
    """
    lams = np.linspace(lambda_star, lambda_inf, 129)
    evans, frames_0 = evans_determinant(model, lams, opts, 0.0)
    size = np.abs(evans)
    flagged = np.sign(evans[:-1]) * np.sign(evans[1:]) < 0
    dips = (size[1:-1] <= size[:-2]) & (size[1:-1] <= size[2:])
    flagged[:-1] |= dips
    flagged[1:] |= dips
    steps = np.diff(np.concatenate([[0], flagged.astype(int), [0]]))
    # (first, last) grid points of each run of flagged cells
    spans = np.stack([np.flatnonzero(steps == 1), np.flatnonzero(steps == -1)], axis=1)
    if len(spans) == 0:
        return ()
    half = 0.5 * (lams[1] - lams[0])
    ends = [(max(lams[lo] - half, lambda_star), min(lams[hi] + half, lambda_inf))
            for lo, hi in spans]
    contours = [Contour.enclosing(a, b, samples=32) for a, b in ends]
    subs = [np.linspace(a, b, 33) for a, b in ends]
    circles = [_integrated_points(c) for c in contours]
    values = _evans_values(model, np.concatenate(circles + subs), opts)
    on_circle = np.split(values[: sum(map(len, circles))], len(spans))
    on_axis = np.split(values[sum(map(len, circles)):].real, len(spans))
    frames_l = propagate(model, lams[spans.ravel()], frames_0[spans.ravel()],
                         [0.0, opts.truncation], opts)[-1]
    phases = _crossing_phases(frames_l)
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
        direction = -1 if _wrapped_diffs(phases[2 * k : 2 * k + 2])[0] < 0 else 1
        if len(hits) < winding:
            events.append(CrossingEvent(float(sub[np.argmin(mags)]), winding,
                                        direction))
            continue
        lo, hi = signed[hits], signed[hits + 1]
        a, b, fa, fb = sub[lo], sub[hi], vals[lo], vals[hi]
        events.extend(CrossingEvent(float(root), 1, direction)
                      for root in a - fa * (b - a) / (fb - fa))
    return tuple(events)


def _bottom_edge_empty(model, lambda_star, lambda_inf):
    """The frame at x = -L is the asymptotic unstable frame: never Dirichlet."""
    lams = np.linspace(lambda_star, lambda_inf, BOTTOM_EDGE_SAMPLES)
    unstable, _, _ = _asymptotic_frames(model, lams, "minus")
    return not np.any(symplectic.dirichlet_intersection_dim(unstable))


def maslov_square(model, lambda_star, opts=None):
    """Crossing ledger around the boundary of the Maslov square.

    Left edge: conjugate points at lambda_star (x increasing).  Top edge:
    eigenvalues in (lambda_star, lambda_inf) at x = +L (lambda increasing).
    Right and bottom edges are verified empty.  The net index around the
    loop must be zero; a nonzero value is reported, never corrected.
    """
    opts = (opts or FlowOptions()).resolve(model)
    lambda_inf = lambda_ceiling(model, lambda_star, opts.truncation)
    left = detect_conjugate_points(model, lambda_star, opts)
    top = _top_edge(model, lambda_star, lambda_inf, opts)
    right = detect_conjugate_points(model, lambda_inf, opts)
    bottom_ok = _bottom_edge_empty(model, lambda_star, lambda_inf)
    if not bottom_ok:
        raise InconsistencyError("asymptotic frame at x = -L met the Dirichlet plane")
    net = (
        sum(e.signed_count for e in left)
        + sum(e.signed_count for e in top)
        - sum(e.signed_count for e in right)
    )
    return SquareReport(
        left_events=left,
        top_events=top,
        right_events=right,
        bottom_events=(),
        net_index=int(net),
        lambda_star=float(lambda_star),
        lambda_inf=float(lambda_inf),
    )


def count_unstable_eigenvalues(model, opts=None, epsilon_shift=1e-3):
    """Unstable-eigenvalue count from conjugate points at lambda = epsilon_shift.

    The shift steps off the translation eigenvalue at zero.  For pulse
    models a count of zero contradicts the instability theorem and raises.
    ``evans.compare_counts`` adds the winding and oracle cross-checks.
    """
    stab = check_essential_stability(model)
    if not stab.stable:
        raise NonHyperbolicError(
            f"essential spectrum is unstable (max asymptotic eigenvalue "
            f"{stab.max_eig_qinf:.6g} >= 0)"
        )
    opts = (opts or FlowOptions()).resolve(model)
    events = detect_conjugate_points(model, epsilon_shift, opts)
    count = sum(e.multiplicity for e in events)
    if model.kind == "pulse" and count < 1:
        raise InconsistencyError(
            "pulse model produced zero conjugate points, contradicting the "
            "pulse instability theorem; treat as a numerical failure"
        )
    return SpectralReport(
        conjugate_count=int(count),
        epsilon_shift=float(epsilon_shift),
        lambda_inf=lambda_ceiling(model, epsilon_shift, opts.truncation),
        events=events,
    )
