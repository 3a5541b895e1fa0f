"""DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary Differential
Equations I*, section II.5) in one loop, with Q sampled once per step.

``solve_ivp`` replays the arithmetic of ``scipy.integrate.solve_ivp(...,
method="DOP853")`` step for step: scipy's tableau, its initial step
selection, stage sums, 5/3 error norm and SAFETY/MIN/MAX step control, its
dense polynomial and ``OdeSolution``'s rule for a point on a step end, so
every state comes out bit for bit the same.  What it leaves out is the
machinery around that arithmetic: no solver object, no wrappers around the
right-hand side, no interpolant object per step and no list of every
step's state.  The tableau is a copy of scipy's, written out below, so this
module imports numpy alone and not ``scipy.integrate``;
``tests/test_dop853.py`` pins the copy to scipy's arrays.

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

# scipy's DOP853 tableau (scipy/integrate/_ivp/dop853_coefficients.py), each
# entry the repr of scipy's evaluated float, so that E3 and E5, which scipy
# computes as B minus a constant, keep their bits; tests/test_dop853.py pins
# every array to scipy's.  _A holds the 12 stages of a step, _B its weights,
# _E3 and _E5 (13 entries, the last for the end derivative) the two error
# estimators, _A_EXTRA and _C_EXTRA the 3 extra stages of the dense output and
# _D the dense polynomial's coefficients over all 16 stages.
_N = 12
_N_EXTENDED = 16
_INTERPOLATOR_POWER = 7
_A = np.array([
    [
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.05260015195876773, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.0197250569845379, 0.0591751709536137, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0,
    ],
    [
        0.02958758547680685, 0.0, 0.08876275643042054, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
    ],
    [
        0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792, 0.0, 0.0, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242, 0.0,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
        0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
        -0.015319437748624402, 0.008273789163814023, 0.0, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996, 0.0, 0.0, 0.0, 0.0,
    ],
    [
        0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627, 0.0, 0.0, 0.0,
    ],
    [
        -0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
        -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
        -3.0467644718982196, 0.0, 0.0,
    ],
    [
        2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
        -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
        12.360567175794303, 0.6433927460157636, 0.0,
    ],
])
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
    0.04471061572777259,
])
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0,
])
_D = np.array([
    [
        -8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
        -3.0689499459498917, 2.38466765651207, 2.117034582445028, -0.871391583777973,
        2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
        18.148505520854727, -9.194632392478356, -4.436036387594894,
    ],
    [
        10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
        -374.5467547226902, -22.113666853125306, 7.733432668472264,
        -30.674084731089398, -9.332130526430229, 15.697238121770845,
        -31.139403219565178, -9.35292435884448, 35.81684148639408,
    ],
    [
        19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
        -189.17813819516758, 527.8081592054236, -11.57390253995963, 6.8812326946963,
        -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
        -60.19669523126412, 84.32040550667716, 11.99229113618279,
    ],
    [
        -25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
        -231.5293791760455, 357.6391179106141, 93.40532418362432, -37.45832313645163,
        104.0996495089623, 29.8402934266605, -43.53345659001114, 96.32455395918828,
        -39.17726167561544, -149.72683625798564,
    ],
])
_A_EXTRA = np.array([
    [
        0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
        -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
        0.00820105229563469, 0.007567897660545699, -0.008298, 0.0, 0.0, 0.0,
    ],
    [
        0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
        0.053541988307438566, -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
        0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325, 0.0, 0.0,
    ],
    [
        -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
        7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
        -0.0013990241651590145, 2.9475147891527724, -9.15095847217987, 0.0,
    ],
])
_C_EXTRA = np.array([
    0.1, 0.2, 0.7777777777777778,
])
# abscissae of stages 1 .. 11 as fractions of the step; the last is 1, where
# the end derivative f(t + h, y_new) is read as well
_NODES = _C[1:]

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
    K_ext = np.empty((_N_EXTENDED, n), dtype=y.dtype)
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
            F = np.empty((_INTERPOLATOR_POWER, n), dtype=y.dtype)
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
