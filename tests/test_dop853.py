"""The package's DOP853 loop against scipy's ``solve_ivp``, bit for bit.

Both integrate the same frame-stack system U' = [[0, I], [lambda - Q, 0]] U
of an n = 2 potential, carried as one (2n, K n) matrix as ``flow.propagate``
carries it.  The kernel reads Q from one ``sample`` call per step, scipy
calls Q once per right-hand side; ``sample`` loops over the same function,
so both see the same numbers and every state must come out equal, not
close.  The kernel's tableau is a copy of scipy's private
``dop853_coefficients`` module, so the first tests pin every array of the
copy to scipy's, bit for bit.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from maslovstab import dop853

N = 2
RTOL, ATOL = 1e-9, 1e-11
REAL = np.array([0.3, 1.5, 4.0])
COMPLEX = REAL + 0.7j


def potential(x):
    r = 1.0 / (1.0 + x * x)
    return np.array([[1.0 - 3.0 * r, 0.5 * r], [0.5 * r, -1.0 + 2.0 / (4.0 + x * x)]])


S = scipy_tableau.N_STAGES
TABLEAU = {
    "_A": scipy_tableau.A[:S, :S],
    "_B": scipy_tableau.B,
    "_C": scipy_tableau.C[:S],
    "_E3": scipy_tableau.E3,
    "_E5": scipy_tableau.E5,
    "_D": scipy_tableau.D,
    "_A_EXTRA": scipy_tableau.A[S + 1:],
    "_C_EXTRA": scipy_tableau.C[S + 1:],
}


class TestTableau:
    @pytest.mark.parametrize("name", sorted(TABLEAU))
    def test_array_is_scipys(self, name):
        ours, theirs = getattr(dop853, name), TABLEAU[name]
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
        # equal bits, so no entry differs in the sign of a zero either
        assert ours.tobytes() == np.ascontiguousarray(theirs).tobytes()

    def test_stage_counts_are_scipys(self):
        assert dop853._N == scipy_tableau.N_STAGES
        assert dop853._N_EXTENDED == scipy_tableau.N_STAGES_EXTENDED
        assert dop853._INTERPOLATOR_POWER == scipy_tableau.INTERPOLATOR_POWER

    def test_last_stage_ends_the_step(self):
        # the step's end derivative is read at the last stage abscissa
        assert dop853._NODES[-1] == 1.0
        assert len(dop853._NODES) == dop853._N - 1


class CountingSample:
    """Q at every abscissa of one call, stacked; records the call sizes."""

    def __init__(self):
        self.sizes = []

    def __call__(self, ts):
        self.sizes.append(len(ts))
        return np.array([potential(t) for t in ts])


def stack_rhs(lams):
    lam_row = np.repeat(lams, N)

    def rhs(x, y, q_x):
        u = y.reshape(2 * N, -1)
        out = np.empty_like(u)
        out[:N] = u[N:]
        out[N:] = lam_row * u[:N] - q_x @ u[:N]
        return out.ravel()

    return rhs


def initial_stack(lams):
    y0 = np.linspace(0.1, 1.0, 2 * N * len(lams) * N)
    return y0 + 0.25j * y0[::-1] if np.iscomplexobj(lams) else y0


def reference(lams, span, **kwargs):
    """scipy's run on the same system, with Q read once per right-hand side."""
    rhs = stack_rhs(lams)
    return scipy_solve_ivp(lambda x, y: rhs(x, y, potential(x)), span, initial_stack(lams),
                           method="DOP853", rtol=RTOL, atol=ATOL, **kwargs)


def kernel(lams, span, sample=None, **kwargs):
    return dop853.solve_ivp(stack_rhs(lams), span, initial_stack(lams), rtol=RTOL,
                            atol=ATOL, sample=sample or CountingSample(), **kwargs)


def along(span, points):
    """points sorted in the direction of the run over span."""
    points = np.asarray(points)
    return points[np.argsort(np.sign(span[1] - span[0]) * points, kind="stable")]


@pytest.mark.parametrize("first_step", [None, 0.05], ids=["chosen", "given"])
@pytest.mark.parametrize("span", [(-6.0, 4.0), (5.0, -3.5)], ids=["forward", "backward"])
@pytest.mark.parametrize("lams", [REAL, COMPLEX], ids=["real", "complex"])
class TestAgainstScipy:
    def test_steps_and_end_state(self, lams, span, first_step):
        sample = CountingSample()
        plain = reference(lams, span, first_step=first_step)
        got = kernel(lams, span, first_step=first_step, sample=sample)
        assert got.success and got.message == plain.message
        assert np.array_equal(got.t, plain.t)
        assert np.array_equal(got.y, plain.y[:, -1])
        assert got.y.dtype == plain.y.dtype
        assert got.nfev == plain.nfev
        # one sample per attempted step, on its 11 stage abscissae, plus
        # the start and, without a given first step, the trial step
        start = [1] if first_step else [1, 1]
        assert sample.sizes[: len(start)] == start
        attempts = sample.sizes[len(start):]
        assert attempts == [11] * len(attempts)
        assert 12 * len(attempts) + len(start) == plain.nfev

    def test_requested_points(self, lams, span, first_step):
        dense = reference(lams, span, first_step=first_step, dense_output=True)
        ends = dense.t[[1, 3, 4, -2]]
        inside = span[0] + (span[1] - span[0]) * np.array([0.0, 0.013, 0.31, 0.5, 0.77, 1.0])
        points = along(span, np.concatenate([ends, inside]))
        got = kernel(lams, span, first_step=first_step, points=points)
        # a point on a step end is read from the step that ends there
        assert np.array_equal(got.ys, dense.sol(points))
        assert np.array_equal(got.t, dense.t)
        # the three extra dense stages only on the steps holding a point
        sign = np.sign(span[1] - span[0])
        steps = len(dense.t) - 1
        holding = np.clip(np.searchsorted(sign * dense.t, sign * points) - 1, 0, steps - 1)
        assert 0 < len(set(holding)) < steps
        assert got.nfev == dense.nfev - 3 * (steps - len(set(holding)))

    def test_interpolant(self, lams, span, first_step):
        dense = reference(lams, span, first_step=first_step, dense_output=True)
        got = kernel(lams, span, first_step=first_step, dense=True)
        assert got.nfev == dense.nfev
        rng = np.random.default_rng(7)
        lo, hi = min(span), max(span)
        xs = np.concatenate([rng.uniform(lo, hi, 25), dense.t, [lo - 0.5, hi + 0.5]])
        for x in xs:
            assert np.array_equal(got.sol(x), dense.sol(x))


def test_rejected_steps_replay_scipy():
    # a first step over the whole span fails the error test and shrinks
    span = (-6.0, 4.0)
    plain = reference(COMPLEX, span, first_step=10.0)
    attempts = (plain.nfev - 1) // 12
    assert attempts > len(plain.t) - 1
    got = kernel(COMPLEX, span, first_step=10.0)
    assert np.array_equal(got.t, plain.t) and np.array_equal(got.y, plain.y[:, -1])
    assert got.nfev == plain.nfev


def test_right_hand_side_not_finite_fails_as_in_scipy():
    # Q is NaN past x = 0.5: the step shrinks to below ten float spacings
    # of x, and the run ends unsuccessful with scipy's message
    def spoiled(x):
        return potential(x) * (np.nan if x > 0.5 else 1.0)

    rhs = stack_rhs(REAL)
    span = (-1.0, 2.0)
    ref = scipy_solve_ivp(lambda x, y: rhs(x, y, spoiled(x)), span, initial_stack(REAL),
                          method="DOP853", rtol=RTOL, atol=ATOL)
    got = dop853.solve_ivp(rhs, span, initial_stack(REAL), rtol=RTOL, atol=ATOL,
                           sample=lambda ts: np.array([spoiled(t) for t in ts]))
    assert not ref.success and not got.success
    assert got.message == ref.message
    assert np.array_equal(got.t, ref.t) and np.array_equal(got.y, ref.y[:, -1])
    assert got.nfev == ref.nfev
    # the last attempted step sampled the x where Q stops being finite
    assert np.all(np.abs(got.nodes - 0.5) < 1e-12) and np.any(got.nodes > 0.5)
