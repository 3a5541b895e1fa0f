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

from .errors import IllConditionedError, NonLagrangianError, UndersampledPathError

DRIFT_TOL = 1e-7
CROSSING_TOL = 1e-8
DIRICHLET_TOL = 1e-6

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


def _as_stack(frames):
    """A frame or a stack of frames as a (K, 2n, n) float stack, and the
    leading shape to give results back in."""
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[-1] if frames.ndim >= 2 else 0
    if n < 1 or frames.shape[-2] != 2 * n:
        raise ValueError(f"a frame must be 2n x n, got shape {frames.shape}")
    return frames.reshape((-1,) + frames.shape[-2:]), frames.shape[:-2]


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
    W = conj(U) U*.  U* U - I = i(A^T B - B^T A): a spectral norm beyond
    DRIFT_TOL means the plane is not Lagrangian, and the NonLagrangianError
    names the first such frame's entry of ``params`` when given.
    """
    stack, lead = _as_stack(frames)
    n = stack.shape[-1]
    q = qr_positive(stack)
    a, b = q[:, :n], q[:, n:]
    u = a + 1j * b
    residuals = np.linalg.norm(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(n), 2, (1, 2))
    bad = np.flatnonzero(residuals > DRIFT_TOL)
    if len(bad) > 0:
        k = bad[0]
        where = "" if params is None else f" at parameter {float(params[k])!r}"
        raise NonLagrangianError(
            f"frame{where} is not Lagrangian: unitarity residual {residuals[k]:.3e} "
            f"exceeds {DRIFT_TOL:.1e}"
        )
    v = a - 1j * b
    return (v @ np.swapaxes(v, 1, 2)).reshape(lead + (n, n))


def _wrap_pi(x):
    """Wrap an array to (-pi, pi]."""
    y = np.mod(x + np.pi, _TWO_PI) - np.pi
    y[y == -np.pi] = np.pi
    return y


def eigenphases_from_minus_one(w):
    """Phases beta in (-pi, pi] of the eigenvalues of -W (of each W in a stack).

    beta = 0 exactly when the corresponding W-eigenvalue sits at -1, and
    beta increases when the eigenvalue moves counterclockwise.
    """
    return np.angle(-np.linalg.eigvals(w))


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
    betas = np.sort(betas, axis=1)
    old, new = betas[:-1], betas[1:]
    # on the circle the least-movement pairing of two sorted phase sets is
    # a cyclic shift of one against the other
    n = frames.shape[-1]
    shifted = np.stack([_wrap_pi(np.roll(new, -s, axis=1) - old) for s in range(n)])
    best = np.argmin(np.sum(np.abs(shifted), axis=2), axis=0)
    dbeta = shifted[best, np.arange(len(best))]
    too_far = np.abs(dbeta) >= np.pi / 2
    if np.any(too_far):
        j, i = np.argwhere(too_far)[0]
        raise UndersampledPathError(
            f"phase step {abs(dbeta[j, i]):.3f} rad >= {np.pi / 2:.3f} on "
            f"({float(params[j])!r}, {float(params[j + 1])!r}]; "
            "refine the path sampling"
        )
    # a phase sitting at zero at t0 belongs to the previous step; one
    # arriving at zero at t1 is counted (half-open steps (t0, t1])
    after = old + dbeta
    hit = (np.abs(old) > CROSSING_TOL) & ((np.sign(old) * np.sign(after) < 0)
                                         | (np.abs(after) <= CROSSING_TOL))
    j, i = np.nonzero(hit)
    t0, t1 = params[j], params[j + 1]
    at = t0 + np.abs(old[j, i]) / np.abs(dbeta[j, i]) * (t1 - t0)
    raw = [CrossingEvent(float(t), 1, 1 if d > 0 else -1)
           for t, d in zip(at, dbeta[j, i])]
    span = abs(params[-1] - params[0])
    events = tuple(_merge_events(raw, span))
    for e in events:
        if e.multiplicity > n:
            raise IllConditionedError(
                f"crossing multiplicity {e.multiplicity} exceeds the plane "
                f"dimension {n} at parameter {e.param!r}"
            )
    index = int(sum(e.signed_count for e in events))
    return MaslovIndexResult(index, events)
