"""The package's Brent root finder against ``scipy.optimize.brentq``.

Every bracket must give scipy's root exactly, after exactly as many calls
of f as scipy reports; the failures scipy raises as ValueError or
RuntimeError must come out as ``SolverError`` naming x.
"""

import math
import re

import pytest
from scipy.optimize import brentq as scipy_brentq

from maslovstab import brent
from maslovstab.brent import brentq
from maslovstab.errors import SolverError


class Counted:
    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


def cubic(x):
    return x ** 3 - 2.0 * x - 5.0


def steep(x):
    return math.atan(1e4 * (x - 0.3))


def flat(x):
    # a ninth-order root: f is below 1e-90 within 1e-10 of it
    return (x - 1.0 / 3.0) ** 9


def tiny(x):
    # values so small that the extrapolation's denominator underflows to
    # zero, where scipy's C divides into an infinite step and bisects
    return 1e-200 * (x - 0.3 + (x - 0.3) ** 3)


def shifted_exp(x):
    return math.exp(x) - 2.0


BRACKETS = [
    ("smooth", cubic, 1.0, 3.0),
    ("steep atan", steep, -2.0, 1.5),
    ("flat high-order root", flat, -0.4, 1.3),
    ("underflowing steps", tiny, -1.0, 2.0),
    ("f(a) == 0", shifted_exp, math.log(2.0), 3.0),
    ("f(b) == 0", steep, -1.0, 0.3),
    ("a > b", cubic, 3.0, 1.0),
    ("a > b, steep", steep, 1.5, -2.0),
]
XTOLS = [5e-324, 1e-300, 1e-100, 1e-13, 1e-12, 2e-12, 1e-9, 1e-6]


@pytest.mark.parametrize("xtol", XTOLS)
@pytest.mark.parametrize("name, f, a, b", BRACKETS, ids=[b[0] for b in BRACKETS])
def test_matches_scipy(name, f, a, b, xtol):
    root, info = scipy_brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
    counted = Counted(f)
    if info.converged:
        assert brentq(counted, a, b, xtol) == root
    else:
        # scipy stops at maxiter and, with disp, would raise RuntimeError
        with pytest.raises(SolverError, match=re.escape(f"last x = {root!r}")):
            brentq(counted, a, b, xtol)
    assert counted.calls == info.function_calls


def test_end_roots_return_at_once():
    assert brentq(shifted_exp, math.log(2.0), 3.0, 1e-12) == math.log(2.0)
    assert brentq(steep, -1.0, 0.3, 1e-12) == 0.3


def test_maxiter_follows_scipy(monkeypatch):
    for maxiter in (7, 3):
        monkeypatch.setattr(brent, "MAXITER", maxiter)
        root, info = scipy_brentq(flat, -0.4, 1.3, xtol=1e-14, maxiter=maxiter,
                                  full_output=True, disp=False)
        assert not info.converged
        with pytest.raises(SolverError, match=re.escape(f"last x = {root!r}")):
            brentq(flat, -0.4, 1.3, 1e-14)


def test_nan_names_x():
    # scipy raises ValueError here
    def spoiled(x):
        return math.nan if x > 0.5 else x - 0.75

    with pytest.raises(SolverError, match=r"NaN at x = 2\.0"):
        brentq(spoiled, 0.0, 2.0, 1e-12)

    def spoiled_inside(x):
        return math.nan if 0.2 < x < 1.8 else x - 1.0

    # the first trial point falls inside the spoiled window
    with pytest.raises(SolverError, match=r"NaN at x = 1\.0\b"):
        brentq(spoiled_inside, 0.0, 2.0, 1e-12)


def test_maxiter_spent_names_x(monkeypatch):
    # scipy raises RuntimeError here
    monkeypatch.setattr(brent, "MAXITER", 1)
    root, info = scipy_brentq(cubic, 1.0, 3.0, xtol=1e-12, maxiter=1,
                              full_output=True, disp=False)
    assert not info.converged
    message = f"no convergence in 1 iterations, last x = {root!r}"
    with pytest.raises(SolverError, match=re.escape(message)):
        brentq(cubic, 1.0, 3.0, 1e-12)


def test_same_signs_name_both_ends():
    # scipy raises ValueError here
    with pytest.raises(SolverError, match=r"same sign at x = 3\.0 .* and at x = 4\.0"):
        brentq(cubic, 3.0, 4.0, 1e-12)
