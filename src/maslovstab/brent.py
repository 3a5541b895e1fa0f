"""Brent's bracketing root finder (Brent, *Algorithms for Minimization
Without Derivatives*, 1973, chapter 4).

``brentq`` is a line-by-line port of the C routine behind
``scipy.optimize.brentq`` (scipy/optimize/Zeros/brentq.c) at scipy's
default rtol and maxiter: the same interpolation and extrapolation
steps, the same tolerance 2 delta with delta = (xtol + RTOL |x|) / 2,
and the same order of evaluations, so it returns the same root after
the same number of calls of f.  The package
owns it so that importing the package does not load ``scipy.optimize``.
Where scipy raises ValueError or RuntimeError, it raises ``SolverError``.
"""

import math
import sys

from .errors import SolverError

# scipy's defaults: its least rtol and its iteration cap
RTOL = 4 * sys.float_info.epsilon
MAXITER = 100


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise SolverError(f"root finder: f(x) is NaN at x = {x!r}")
    return fx


def brentq(f, a, b, xtol):
    """A root of f between a and b, where f(a) and f(b) differ in sign.

    The root is returned as a float within 2 (xtol + RTOL |x|) of a sign
    change of f.  f is called with floats and must return a real number.
    Raises ``SolverError`` naming x when f is NaN there, when f(a) and
    f(b) have the same sign, and when MAXITER iterations end short of the
    tolerance.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise SolverError(
            f"root finder: f(x) has the same sign at x = {xpre!r} ({fpre!r}) "
            f"and at x = {xcur!r} ({fcur!r})"
        )
    for _ in range(MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        # an infinite trial step fails the test below, which bisects
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides into an infinite or NaN step here, which bisects too
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise SolverError(
        f"root finder: no convergence in {MAXITER} iterations, last x = {xcur!r}"
    )
