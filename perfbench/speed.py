"""Machine-speed probe used to put case times on a fixed scale.

On a shared host the same case can take 60 % longer from one second to the
next, as neighbours come and go.  A short fixed kernel of the same kind of
work as the package (a DOP853 ``solve_ivp`` with a Python right-hand side
doing a 2 x 2 numpy product) is timed before and after every case; the
case's wall time is rescaled by REFERENCE_S over the mean of the two
readings.  Reported times are therefore seconds on a machine that runs the
kernel in REFERENCE_S.  The kernel uses only numpy and scipy, never the
package, so no change to the package can move it.  Raw wall times are kept
in each run's detail file.
"""

from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

REFERENCE_S = 0.0015
_A = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _rhs(x, y):
    return _A @ y


def _kernel_once():
    start = perf_counter()
    solve_ivp(_rhs, (0.0, 6.0), [1.0, 0.0], method="DOP853", rtol=1e-10, atol=1e-12)
    return perf_counter() - start


def kernel_seconds():
    """Median of five kernel runs: one reading of the machine's speed."""
    return sorted(_kernel_once() for _ in range(5))[2]


def scale(k_before, k_after):
    """Factor that turns a wall time bracketed by two readings into reference seconds."""
    return REFERENCE_S / (0.5 * (k_before + k_after))
