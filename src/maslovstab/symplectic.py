"""Lagrangian planes in R^{2n} and the Maslov index of sampled plane paths.

A Lagrangian plane is represented by a frame: a (2n, n) float array with
blocks (A; B) whose column span is the plane; any two frames of the same
plane differ by right multiplication with an invertible n x n matrix.  A
sampled path is a (K, 2n, n) stack of frames, and every function here
takes a frame or a stack and works over the leading axes.  The
symplectic form is w(U, V) = <U, J V> with J = [[0, -I], [I, 0]].

The unitary reduction of a plane is W = (A - iB)(A + iB)^{-1} computed
through a column-orthonormalized frame, which makes W unitary and
independent of the choice of frame.  Intersections with the Dirichlet
plane D = {(0, v)} show up as eigenvalues of W at -1, and the Maslov
index of a path counts signed passages of W-eigenvalues through -1.

Sign convention (the crossing-direction surrogate used throughout this
package): a crossing counts +1 when the W-eigenvalue passes through -1
counterclockwise (phase increasing) and -1 when it passes clockwise.
Under this convention conjugate points of the wave problem (crossings in
the spatial variable) come out positive and eigenvalue crossings (in the
spectral parameter) come out negative.

Endpoint convention: a crossing sitting exactly at the initial point of a
path is not counted; one at the terminal point is counted (half-open
parameter interval).
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import IllConditionedError, NonLagrangianError, UndersampledPathError

RANK_TOL = 1e-10
LAGR_TOL = 1e-8
UNIT_TOL = 1e-8
CROSSING_TOL = 1e-8

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CrossingEvent:
    """One passage of a W-eigenvalue through -1 along a path."""

    param: float
    multiplicity: int
    direction: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    @property
    def signed_count(self):
        return self.direction * self.multiplicity


@dataclass(frozen=True)
class MaslovIndexResult:
    index: int
    events: tuple

    def __post_init__(self):
        total = sum(e.signed_count for e in self.events)
        if total != self.index:
            raise ValueError("index does not match the signed event sum")


@dataclass(frozen=True)
class LagrangianCheck:
    """Violation report for the two frame invariants."""

    rank_defect: int
    asymmetry: float
    smallest_singular_value: float
    passed: bool


def _as_stack(frames):
    """A frame or a stack of frames as a (K, 2n, n) float stack, and the
    leading shape to give results back in."""
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[-1] if frames.ndim >= 2 else 0
    if n < 1 or frames.shape[-2] != 2 * n:
        raise ValueError(f"a frame must be 2n x n, got shape {frames.shape}")
    return frames.reshape((-1,) + frames.shape[-2:]), frames.shape[:-2]


def _per_frame(values, lead):
    """One value per frame: a Python scalar for a single frame, else an array."""
    values = values.reshape(lead)
    return values.item() if lead == () else values


def check_lagrangian(frames, rank_tol=RANK_TOL, asym_tol=LAGR_TOL):
    """Report rank defect of each frame and its symplectic asymmetry.

    The asymmetry is the spectral norm of A^T B - B^T A, i.e. the largest
    value of the symplectic form on a pair of unit combinations of columns.
    """
    stack, lead = _as_stack(frames)
    n = stack.shape[-1]
    s = np.linalg.svd(stack, compute_uv=False)
    scale = np.maximum(1.0, s[:, 0])
    defect = np.sum(s <= rank_tol * scale[:, None], axis=1)
    a, b = stack[:, :n], stack[:, n:]
    asym = np.swapaxes(a, 1, 2) @ b - np.swapaxes(b, 1, 2) @ a
    asym_norm = np.linalg.norm(asym, 2, axis=(1, 2))
    passed = (defect == 0) & (asym_norm <= asym_tol * scale**2)
    return LagrangianCheck(*(_per_frame(v, lead)
                             for v in (defect, asym_norm, s[:, -1], passed)))


def qr_positive(u):
    """Orthonormal factor of QR over a stack of (2n, n) matrices, real or complex.

    Each column is rephased so that the diagonal of R is real and positive;
    the factor then depends continuously on the input wherever it has full
    rank, and it spans the same plane.
    """
    q, r = np.linalg.qr(u)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if np.iscomplexobj(d):
        mag = np.abs(d)
        phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
        return q * phase.conj()[..., None, :]
    return q * np.where(d < 0, -1.0, 1.0)[..., None, :]


def unitary_reduction(frames, params=None):
    """W = (A - iB)(A + iB)^{-1} of a frame, or of each frame in a stack.

    Computed through the orthonormalized frame: for an orthonormal
    Lagrangian frame U = A + iB is unitary, so the inverse is U* and
    W = conj(U) U*.  A non-unitary U (beyond UNIT_TOL) means the plane was
    not Lagrangian; the NonLagrangianError names the first such frame's
    entry of ``params`` when given.
    """
    stack, lead = _as_stack(frames)
    n = stack.shape[-1]
    q = qr_positive(stack)
    a, b = q[:, :n], q[:, n:]
    u = a + 1j * b
    residuals = np.linalg.norm(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(n), axis=(1, 2))
    bad = np.flatnonzero(residuals > UNIT_TOL)
    if len(bad) > 0:
        k = bad[0]
        where = "" if params is None else f" at parameter {float(params[k])!r}"
        raise NonLagrangianError(
            f"frame{where} is not Lagrangian: unitarity residual {residuals[k]:.3e} "
            f"exceeds {UNIT_TOL:.1e}"
        )
    v = a - 1j * b
    return (v @ np.swapaxes(v, 1, 2)).reshape(lead + (n, n))


def dirichlet_intersection_dim(frames, tol=1e-6):
    """Dimension of the intersection with the Dirichlet plane {(0, v)}.

    Counted two ways, which must agree: eigenvalues of W within tol of -1,
    and singular values of the orthonormalized a-block below tol/2 (the two
    spectra are related exactly by sigma(W + I) = 2 sigma(A)).
    """
    stack, lead = _as_stack(frames)
    n = stack.shape[-1]
    eigs = np.linalg.eigvals(unitary_reduction(stack))
    count_w = np.sum(np.abs(eigs + 1.0) <= tol, axis=1)
    sing = np.linalg.svd(qr_positive(stack)[:, :n], compute_uv=False)
    count_a = np.sum(sing <= tol / 2.0, axis=1)
    bad = np.flatnonzero(count_w != count_a)
    if len(bad) > 0:
        k = bad[0]
        raise IllConditionedError(
            f"Dirichlet intersection counts disagree: ker(W+I) gives {count_w[k]}, "
            f"a-block rank defect gives {count_a[k]} (tol {tol:.1e})"
        )
    return _per_frame(count_w, lead)


def maslov_angle(frames):
    """Angle theta in [0, 2pi) with e^{i theta} = det W."""
    stack, lead = _as_stack(frames)
    theta = np.angle(np.linalg.det(unitary_reduction(stack)))
    theta = np.where(theta < 0.0, theta + _TWO_PI, theta)
    theta = np.where(theta >= _TWO_PI, theta - _TWO_PI, theta)
    return _per_frame(theta, lead)


def _wrap_pi(x):
    """Wrap to (-pi, pi]."""
    y = np.mod(x + np.pi, _TWO_PI) - np.pi
    if np.isscalar(y):
        return y if y != -np.pi else np.pi
    y[y == -np.pi] = np.pi
    return y


def eigenphases_from_minus_one(w):
    """Phases beta in (-pi, pi] of the eigenvalues of -W (of each W in a stack).

    beta = 0 exactly when the corresponding W-eigenvalue sits at -1, and
    beta increases when the eigenvalue moves counterclockwise.
    """
    return np.angle(-np.linalg.eigvals(w))


def match_phases(beta_old, beta_new):
    """Pair the two phase sets minimizing total circular movement."""
    diff = _wrap_pi(beta_new[None, :] - beta_old[:, None])
    rows, cols = linear_sum_assignment(np.abs(diff))
    order = np.argsort(rows)
    return cols[order], diff[rows[order], cols[order]]


def _step_crossings(beta_old, dbeta, t0, t1, zero_tol, step_bound):
    """Crossings of beta = 0 on the half-open step (t0, t1].

    Returns a list of single crossing events.  A phase sitting at zero at t0
    belongs to the previous step and is skipped; one arriving at zero at t1
    is counted.
    """
    out = []
    for b0, db in zip(beta_old, dbeta):
        if abs(db) >= step_bound:
            raise UndersampledPathError(
                f"phase step {abs(db):.3f} rad >= {step_bound:.3f} on "
                f"({float(t0)!r}, {float(t1)!r}]; refine the path sampling"
            )
        if abs(b0) <= zero_tol:
            continue
        b1 = b0 + db
        crossed = (b0 < 0.0 and b1 > 0.0) or (b0 > 0.0 and b1 < 0.0)
        arrived = abs(b1) <= zero_tol
        if not crossed and not arrived:
            continue
        direction = 1 if db > 0 else -1
        frac = abs(b0) / abs(db) if db != 0.0 else 1.0
        out.append(CrossingEvent(float(t0 + frac * (t1 - t0)), 1, direction))
    return out


def _merge_events(events, span, merge_tol=1e-9):
    """Cluster same-direction crossings at coincident parameters, summing multiplicities."""
    tol = merge_tol * max(span, 1.0)
    merged = []
    for ev in sorted(events, key=lambda e: (e.param, -e.direction)):
        last = merged[-1] if merged else None
        if last and last.direction == ev.direction and abs(ev.param - last.param) <= tol:
            merged[-1] = CrossingEvent(last.param, last.multiplicity + ev.multiplicity,
                                       ev.direction)
        else:
            merged.append(ev)
    return merged


def path_maslov_index(frames, params=None):
    """Signed count of W-eigenvalue passages through -1 along a (K, 2n, n)
    stack of frames.

    The path must be sampled densely enough that every eigenvalue phase
    moves by less than pi/2 per step; a violation raises
    UndersampledPathError so the caller can refine.  Event parameters are
    located by linear interpolation of the crossing phase within its step.
    """
    frames, _ = _as_stack(frames)
    if len(frames) < 2:
        return MaslovIndexResult(0, ())
    if params is None:
        params = np.arange(len(frames), dtype=float)
    params = np.asarray(params, dtype=float)
    if params.shape[0] != len(frames):
        raise ValueError("params length must match the number of frames")

    betas = eigenphases_from_minus_one(unitary_reduction(frames, params))
    raw = []
    for j in range(len(frames) - 1):
        order, dbeta = match_phases(betas[j], betas[j + 1])
        raw.extend(
            _step_crossings(betas[j], dbeta, params[j], params[j + 1],
                            CROSSING_TOL, np.pi / 2)
        )
        betas[j + 1] = betas[j + 1][order]
    span = abs(params[-1] - params[0])
    events = tuple(_merge_events(raw, span))
    n = frames.shape[-1]
    for e in events:
        if e.multiplicity > n:
            raise IllConditionedError(
                f"crossing multiplicity {e.multiplicity} exceeds the plane "
                f"dimension {n} at parameter {e.param!r}"
            )
    index = int(sum(e.signed_count for e in events))
    return MaslovIndexResult(index, events)
