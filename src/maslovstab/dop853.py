"""DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, section II.5) in one loop, with Q sampled once per step.

``solve_ivp`` replays the arithmetic of ``scipy.integrate.solve_ivp(...,
method="DOP853")`` step for step: scipy's tableau, its initial step
selection, stage sums, 5/3 error norm and SAFETY/MIN/MAX step control, its
dense polynomial and ``OdeSolution``'s rule for a point on a step end, so
every state comes out bit for bit the same.  What it leaves out is the
machinery around that arithmetic: no solver object, no wrappers around the
right-hand side, no interpolant object per step and no list of every
step's state.

Every stage abscissa of an attempted step is known before its first
stage: t + c_i h for the 11 stages after the first, the last of which
(c_11 = 1) is also t + h, where the step's end derivative is read.  An
optional ``sample(ts)`` is called once per attempted step on those 11
points, and ``fun(t, y, row)`` reads the row of its stage, so a potential
that maps an array of x in one call is read once per step, not once per
right-hand side.  The three extra stages of the dense polynomial are
computed only on steps that hold a requested point, or on every step when
an interpolant over the whole span is asked for.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dop

_N = _dop.N_STAGES
_A = _dop.A[:_N, :_N]
_B = _dop.B
_C = _dop.C[:_N]
_E3 = _dop.E3
_E5 = _dop.E5
_D = _dop.D
_A_EXTRA = _dop.A[_N + 1:]
_C_EXTRA = _dop.C[_N + 1:]
# abscissae of stages 1 .. 11 as fractions of the step; the last is 1, where
# the end derivative f(t + h, y_new) is read as well
_NODES = _C[1:]
if _NODES[-1] != 1.0:
    raise ImportError("scipy's DOP853 tableau no longer ends its stages at c = 1")

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
# -1 / (error estimator order + 1)
_EXPONENT = -1 / 8
_EPS = np.finfo(float).eps

TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
FINISHED = "The solver successfully reached the end of the integration interval."


@dataclass
class Solution:
    """One DOP853 run.

    ``t`` lists the accepted step ends from t_span[0] on, ``y`` is the
    state at t[-1], and ``ys`` the (len(y), len(points)) states at the
    requested points.  ``nodes`` are the abscissae the last attempted step
    sampled, where a failed run gave up.  ``sol`` is the interpolant over
    the whole span when one was asked for, else None.
    """

    t: list
    y: np.ndarray
    ys: np.ndarray
    nfev: int
    success: bool
    message: str
    nodes: np.ndarray
    sol: object = None


class Interpolant:
    """Dense DOP853 polynomials of every step, callable at one x.

    A point on a step end is read from the step that ends there, and a
    point outside the span from the nearest end step, as scipy's
    ``OdeSolution`` does."""

    def __init__(self, ts, steps):
        ts = np.asarray(ts)
        self.steps = steps
        self.ascending = ts[-1] >= ts[0]
        self.sorted = ts if self.ascending else ts[::-1]

    def __call__(self, x):
        side = "left" if self.ascending else "right"
        last = len(self.steps) - 1
        k = min(max(int(np.searchsorted(self.sorted, x, side=side)) - 1, 0), last)
        return _evaluate(*self.steps[k if self.ascending else last - k], np.asarray(x))


def _evaluate(t_old, t_new, y_old, F, x):
    """scipy's ``Dop853DenseOutput`` at x (a float or an (m,) array)."""
    s = (x - t_old) / (t_new - t_old)
    if x.ndim == 0:
        y = np.zeros_like(y_old)
    else:
        s = s[:, None]
        y = np.zeros((len(s), len(y_old)), dtype=y_old.dtype)
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= s
        else:
            y *= 1 - s
    y += y_old
    return y.T


def _squared_norm(x):
    """``np.linalg.norm(x) ** 2`` as numpy rounds it, without its checks."""
    if x.dtype.kind == "c":
        sq = x.real.dot(x.real) + x.imag.dot(x.imag)
    else:
        sq = x.dot(x)
    return np.sqrt(sq) ** 2


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def solve_ivp(fun, t_span, y0, *, rtol, atol, first_step=None, points=(),
              sample=None, dense=False):
    """Integrate y' = fun(t, y, row) over t_span = (t0, t1), t1 != t0.

    ``row`` is ``sample(ts)[i]`` for the i-th of the abscissae ts at which
    one call of ``sample`` was made, or None without ``sample``; ``fun``
    returns an array of y's shape and dtype (float, or complex for a
    complex y0).  ``points`` must run monotonically from t0 towards t1
    inside the span.  ``dense`` builds an ``Interpolant`` over every step.
    Returns a ``Solution``; a step size that falls below ten float
    spacings of t ends the run with ``success`` False, as in scipy.
    """
    t0, t_bound = map(float, t_span)
    if t0 == t_bound:
        raise ValueError("the integration span is empty")
    y = np.asarray(y0)
    y = y.astype(complex if np.issubdtype(y.dtype, np.complexfloating) else float,
                 copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol {rtol!r} is below 100 eps; using {100 * _EPS}", stacklevel=2)
        rtol = np.maximum(rtol, 100 * _EPS)
    points = np.asarray(points, dtype=float)
    direction = np.sign(t_bound - t0)
    blank = (None,) * len(_NODES)

    def rows(ts):
        return blank if sample is None else sample(ts)

    n = len(y)
    K_ext = np.empty((_dop.N_STAGES_EXTENDED, n), dtype=y.dtype)
    K = K_ext[: _N + 1]
    # the stage sums read K[:s].T against row s of the tableau
    stage_sums = [(K_ext[:s].T, _A[s, :s]) for s in range(1, _N)]
    extra_sums = [(K_ext[:s].T, a[:s]) for s, a in enumerate(_A_EXTRA, start=_N + 1)]
    KT_B, KT = K_ext[:_N].T, K.T

    f = fun(t0, y, rows(np.array([t0]))[0])
    nfev = 1
    if first_step is None:
        interval = abs(t_bound - t0)
        scale = atol + np.abs(y) * rtol
        d0 = _rms(y / scale)
        d1 = _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        t1 = t0 + h0 * direction
        f1 = fun(t1, y + h0 * direction * f, rows(np.array([t1]))[0])
        nfev += 1
        d2 = _rms((f1 - f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 8)
        h_abs = min(100 * h0, h1, interval)
    else:
        h_abs = first_step

    ts = [t0]
    ys = np.empty((n, len(points)), dtype=y.dtype)
    # points as increasing distances along the run
    ahead = direction * points
    done = 0
    steps = []
    t = t0
    nodes = np.array([t0])
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return Solution(ts, y, ys, nfev, False, TOO_SMALL_STEP, nodes)
            h = h_abs * direction
            t_new = t + h
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            nodes = t + _NODES * h
            q = rows(nodes)
            K[0] = f
            for s, (kt, a) in enumerate(stage_sums, start=1):
                K[s] = fun(nodes[s - 1], y + np.dot(kt, a) * h, q[s - 1])
            y_new = y + h * np.dot(KT_B, _B)
            f_new = fun(t + h, y_new, q[-1])
            K[-1] = f_new
            nfev += _N
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = _squared_norm(np.dot(KT, _E5) / scale)
            err3 = _squared_norm(np.dot(KT, _E3) / scale)
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** _EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** _EXPONENT)
            rejected = True
        y_old, t_old = y, t
        y, f, t = y_new, f_new, t_new
        ts.append(t)
        finished = direction * (t - t_bound) >= 0
        # a point on a step end belongs to the step that ends there
        upto = len(points) if finished else int(np.searchsorted(ahead, direction * t,
                                                                side="right"))
        if dense or upto > done:
            extra = t_old + _C_EXTRA * h
            q = rows(extra)
            for i, (kt, a) in enumerate(extra_sums):
                K_ext[_N + 1 + i] = fun(extra[i], y_old + np.dot(kt, a) * h, q[i])
            nfev += len(extra)
            F = np.empty((_dop.INTERPOLATOR_POWER, n), dtype=y.dtype)
            delta_y = y - y_old
            F[0] = delta_y
            F[1] = h * K[0] - delta_y
            F[2] = 2 * delta_y - h * (f + K[0])
            F[3:] = h * np.dot(_D, K_ext)
            if upto > done:
                ys[:, done:upto] = _evaluate(t_old, t, y_old, F, points[done:upto])
                done = upto
            if dense:
                steps.append((t_old, t, y_old, F))
        if finished:
            sol = Interpolant(ts, steps) if dense else None
            return Solution(ts, y, ys, nfev, True, FINISHED, nodes, sol)
