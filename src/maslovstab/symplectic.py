"""Lagrangian planes in R^{2n} and the Maslov index of sampled plane paths.

A Lagrangian plane is represented by a 2n x n frame matrix with blocks
(A; B); the plane is the column span and any two frames of the same plane
differ by right multiplication with an invertible n x n matrix.  The
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

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import IllConditionedError, NonLagrangianError, UndersampledPathError

RANK_TOL = 1e-10
LAGR_TOL = 1e-8
UNIT_TOL = 1e-8

_TWO_PI = 2.0 * np.pi


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2n x n frame (A; B) whose column span is a plane in R^{2n}."""

    a_block: np.ndarray
    b_block: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        a = _readonly(self.a_block)
        b = _readonly(self.b_block)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a_block must be square, got shape {a.shape}")
        if b.shape != a.shape:
            raise ValueError(f"block shapes differ: {a.shape} vs {b.shape}")
        object.__setattr__(self, "a_block", a)
        object.__setattr__(self, "b_block", b)
        object.__setattr__(self, "dim", a.shape[0])

    @classmethod
    def from_stacked(cls, stacked):
        stacked = np.asarray(stacked, dtype=float)
        n = stacked.shape[1]
        if stacked.shape[0] != 2 * n:
            raise ValueError(f"stacked frame must be 2n x n, got {stacked.shape}")
        return cls(stacked[:n], stacked[n:])

    def stacked(self):
        return np.vstack([self.a_block, self.b_block])

    def right_multiplied(self, r):
        """Same plane, different frame: columns mixed by invertible r."""
        return LagrangianFrame(self.a_block @ r, self.b_block @ r)


@dataclass(frozen=True)
class UnitaryReduction:
    """The unitary matrix W attached to a Lagrangian plane."""

    w: np.ndarray
    source_frame: LagrangianFrame


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


def check_lagrangian(frame, rank_tol=RANK_TOL, asym_tol=LAGR_TOL):
    """Report rank defect of the stacked frame and the symplectic asymmetry.

    The asymmetry is the spectral norm of A^T B - B^T A, i.e. the largest
    value of the symplectic form on a pair of unit combinations of columns.
    """
    s = np.linalg.svd(frame.stacked(), compute_uv=False)
    scale = max(1.0, s[0])
    defect = int(np.sum(s <= rank_tol * scale))
    asym = frame.a_block.T @ frame.b_block - frame.b_block.T @ frame.a_block
    asym_norm = float(np.linalg.norm(asym, 2)) if frame.dim > 0 else 0.0
    passed = defect == 0 and asym_norm <= asym_tol * scale**2
    return LagrangianCheck(defect, asym_norm, float(s[-1]), passed)


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


def orthonormalized_blocks(frame):
    """Column-orthonormal representative (A, B) of the same plane."""
    q = qr_positive(frame.stacked())
    n = frame.dim
    return q[:n], q[n:]


def unitary_reduction(frame, unit_tol=UNIT_TOL):
    """W = (A - iB)(A + iB)^{-1} through an orthonormalized frame.

    For an orthonormal Lagrangian frame, U = A + iB is unitary, so the
    inverse is U* and W = conj(U) U*.  A non-unitary U (beyond unit_tol)
    means the input plane was not Lagrangian.
    """
    w = _reduced_stack(frame.stacked()[None], unit_tol)[0]
    return UnitaryReduction(w=w, source_frame=frame)


def _reduced_stack(stacked, unit_tol=UNIT_TOL, params=None):
    """W of every frame in a (K, 2n, n) stack, as a (K, n, n) array.

    Raises NonLagrangianError for the first frame whose U fails the
    unitarity check, naming its entry of ``params`` when given.
    """
    n = stacked.shape[-1]
    q = qr_positive(stacked)
    a, b = q[:, :n], q[:, n:]
    u = a + 1j * b
    residuals = np.linalg.norm(np.swapaxes(u.conj(), 1, 2) @ u - np.eye(n), axis=(1, 2))
    bad = np.flatnonzero(residuals > unit_tol)
    if len(bad) > 0:
        k = bad[0]
        where = "" if params is None else f" at parameter {float(params[k])!r}"
        raise NonLagrangianError(
            f"frame{where} is not Lagrangian: unitarity residual {residuals[k]:.3e} "
            f"exceeds {unit_tol:.1e}"
        )
    v = a - 1j * b
    return v @ np.swapaxes(v, 1, 2)


def dirichlet_intersection_dim(frame, tol=1e-6):
    """Dimension of the intersection with the Dirichlet plane {(0, v)}.

    Counted two ways, which must agree: eigenvalues of W within tol of -1,
    and singular values of the orthonormalized a-block below tol/2 (the two
    spectra are related exactly by sigma(W + I) = 2 sigma(A)).
    """
    red = unitary_reduction(frame)
    eigs = np.linalg.eigvals(red.w)
    count_w = int(np.sum(np.abs(eigs + 1.0) <= tol))
    a, _ = orthonormalized_blocks(frame)
    sing = np.linalg.svd(a, compute_uv=False)
    count_a = int(np.sum(sing <= tol / 2.0))
    if count_w != count_a:
        raise IllConditionedError(
            f"Dirichlet intersection counts disagree: ker(W+I) gives {count_w}, "
            f"a-block rank defect gives {count_a} (tol {tol:.1e})"
        )
    return count_w


def maslov_angle(frame):
    """Angle theta in [0, 2pi) with e^{i theta} = det W."""
    red = unitary_reduction(frame)
    theta = float(np.angle(np.linalg.det(red.w)))
    if theta < 0.0:
        theta += _TWO_PI
    if theta >= _TWO_PI:
        theta -= _TWO_PI
    return theta


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
                f"({t0!r}, {t1!r}]; refine the path sampling"
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


def path_maslov_index(path, params=None, crossing_tol=1e-8):
    """Signed count of W-eigenvalue passages through -1 along a frame path.

    The path must be sampled densely enough that every eigenvalue phase
    moves by less than pi/2 per step; a violation raises
    UndersampledPathError so the caller can refine.  Event parameters are
    located by linear interpolation of the crossing phase within its step.
    """
    frames = list(path)
    if len(frames) < 2:
        return MaslovIndexResult(0, ())
    if params is None:
        params = np.arange(len(frames), dtype=float)
    params = np.asarray(params, dtype=float)
    if params.shape[0] != len(frames):
        raise ValueError("params length must match the number of frames")

    stacked = np.array([f.stacked() for f in frames])
    betas = eigenphases_from_minus_one(_reduced_stack(stacked, params=params))
    raw = []
    for j in range(len(frames) - 1):
        order, dbeta = match_phases(betas[j], betas[j + 1])
        raw.extend(
            _step_crossings(betas[j], dbeta, params[j], params[j + 1],
                            crossing_tol, np.pi / 2)
        )
        betas[j + 1] = betas[j + 1][order]
    span = abs(params[-1] - params[0])
    events = tuple(_merge_events(raw, span))
    n = frames[0].dim
    for e in events:
        if e.multiplicity > n:
            raise IllConditionedError(
                f"crossing multiplicity {e.multiplicity} exceeds the plane "
                f"dimension {n} at parameter {e.param!r}"
            )
    index = int(sum(e.signed_count for e in events))
    return MaslovIndexResult(index, events)
