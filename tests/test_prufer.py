import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eig_banded

import reference
import zoo
from reference import NotAnEigenvalueError, eigenfunction_zero_count
from maslovstab import flow, oracle, prufer
from maslovstab.errors import BoundaryResonanceError, SolverError
from maslovstab.models import builtin
from maslovstab.prufer import (
    ScalarProblem,
    _theta_ends,
    conjugate_points,
    count_eigenvalues_above,
    find_eigenvalues,
    prufer_flow,
)

FREE = ScalarProblem(q=lambda x: 0.0, interval=(0.0, np.pi))


def sech2_problem():
    return ScalarProblem(
        q=lambda x: 3.0 / np.cosh(x / 2.0) ** 2 - 1.0, interval=(-40.0, 40.0)
    )


def cli_sech_problem():
    """The sech pulse as `spectrum --model scalar_sech_pulse` poses it."""
    model = builtin("scalar_sech_pulse")
    L = flow.FlowOptions().resolve(model).truncation
    return ScalarProblem(q=lambda x: float(model.q(x)[0, 0]), interval=(-L, L))


def record_mismatch_shots(monkeypatch):
    """The lambda vector of every later `prufer._mismatch` call."""
    shots = []
    mismatch = prufer._mismatch

    def recording(prob, lams, x_m, rtol):
        shots.append(np.asarray(lams, dtype=float))
        return mismatch(prob, lams, x_m, rtol)

    monkeypatch.setattr(prufer, "_mismatch", recording)
    return shots


class TestPruferFlow:
    def test_free_ground_state(self):
        traj = prufer_flow(FREE, -1.0, rtol=1e-11)
        assert_allclose(traj.theta_end, np.pi, atol=1e-9)

    def test_free_second_state(self):
        traj = prufer_flow(FREE, -4.0, rtol=1e-11)
        assert_allclose(traj.theta_end, 2 * np.pi, atol=1e-9)

    def test_first_pi_crossing_constant_coefficient(self):
        # tan(theta) = tan(sqrt2 x)/sqrt2, so theta first reaches pi at pi/sqrt2.
        pts = conjugate_points(FREE, -2.0)
        assert len(pts) == 1
        assert_allclose(pts[0], np.pi / np.sqrt(2.0), atol=1e-9)

    def test_angle_starts_at_zero(self):
        traj = prufer_flow(FREE, -3.0)
        assert traj.samples[0, 1] == 0.0

    def test_failed_integration_is_a_solver_error(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match="angle integration failed"):
                prufer_flow(sech2_problem(), 1e300)

    def test_failed_two_leg_integration_names_both_legs(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverError, match=r"x = -40 \(from a\) and x = 40 \(from b\)"):
                prufer._mismatch(sech2_problem(), [1e300], 0.0, 1e-11)


WINDOWS = [
    pytest.param(FREE, np.linspace(-12.0, 3.0, 31), id="free"),
    # the window find_eigenvalues(sech2, 3) searches; the grid avoids the
    # eigenvalue 0, where theta(b) on (-40, 40) jumps by pi within 1e-12
    pytest.param(sech2_problem(), np.linspace(-2.05, 2.95, 31), id="sech2"),
]


class TestBatchedShots:
    @pytest.mark.parametrize("prob,lams", WINDOWS)
    def test_batch_matches_single_shots(self, prob, lams):
        # one lambda's error must not hide under the batch's RMS error norm;
        # the single shots run tighter, since at the batch's own rtol their
        # global error on (-40, 40) is itself above 1e-9
        ends = _theta_ends(prob, lams, 1e-11)
        singles = [prufer_flow(prob, lam, rtol=1e-13).theta_end for lam in lams]
        assert_allclose(ends, singles, rtol=0.0, atol=1e-9)
        assert np.all(np.diff(ends) < 0.0)

    @pytest.mark.parametrize("prob,lams", WINDOWS)
    def test_two_leg_mismatch_matches_single_legs(self, prob, lams):
        # one integration carries both legs; no lambda's error, on either
        # leg, may hide under the 2K-component RMS error norm
        x_m = prufer._q_peak(prob)[1]
        deltas = prufer._mismatch(prob, lams, x_m, 1e-11)
        left = ScalarProblem(q=prob.q, interval=(prob.a, x_m))
        # theta_R shot backward from b is minus the angle shot forward on
        # the mirrored coefficient
        mirror = ScalarProblem(q=lambda y: prob.q(x_m + prob.b - y), interval=(x_m, prob.b))
        singles = [prufer_flow(left, lam, rtol=1e-13).theta_end
                   + prufer_flow(mirror, lam, rtol=1e-13).theta_end for lam in lams]
        assert_allclose(deltas, singles, rtol=0.0, atol=1e-9)
        assert np.all(np.diff(deltas) < 0.0)

    def test_find_eigenvalues_work_budget(self, monkeypatch):
        calls = []
        real = prufer.solve_ivp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(prufer, "solve_ivp", counting)
        find_eigenvalues(sech2_problem(), 3)
        # one two-leg integration per round: 3 here (the bracket and a grid,
        # then two clustered rounds); 6 with a two-point first round, 14
        # with two shots per round and the bracket expansion
        assert len(calls) <= 4

    def test_find_eigenvalues_rhs_budget(self, monkeypatch):
        # 53,718 RHS calls when the search shot theta(b) over the whole
        # interval (1542ed0); the matched-point mismatch took 22,804 in two
        # shots per round, 11,184 in one two-leg integration per round, and
        # 5,838 in three such rounds
        nfev = []
        real = prufer.solve_ivp

        def counting(*args, **kwargs):
            sol = real(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(prufer, "solve_ivp", counting)
        find_eigenvalues(sech2_problem(), 3)
        assert sum(nfev) <= 7_000

    @pytest.mark.parametrize("prob", [sech2_problem(), cli_sech_problem()],
                             ids=["sech2", "cli-sech"])
    def test_find_eigenvalues_matches_a_tight_run(self, monkeypatch, prob):
        vals = find_eigenvalues(prob, 3)
        monkeypatch.setattr(prufer, "SEARCH_RTOL", 1e-13)
        assert_allclose(vals, find_eigenvalues(prob, 3), rtol=0.0, atol=1e-11)

    def test_sech_pulse_matches_brentq_values(self):
        # spectrum_sech.csv as serial brentq shooting computed it
        vals = find_eigenvalues(cli_sech_problem(), 3)
        assert_allclose(
            vals, [1.250000000000834, -2.7781765712681628e-12, -0.7500000131649982],
            rtol=0.0, atol=1e-10,
        )


class TestCountAbove:
    @pytest.mark.parametrize(
        "lambda_star,expected", [(-5.0, 2), (0.0, 0), (-12.0, 3)]
    )
    def test_free_counts(self, lambda_star, expected):
        assert count_eigenvalues_above(FREE, lambda_star) == expected

    def test_resonant_lambda_rejected(self):
        with pytest.raises(BoundaryResonanceError):
            count_eigenvalues_above(FREE, -1.0)


class TestFindEigenvalues:
    def test_free_spectrum(self):
        vals = find_eigenvalues(FREE, 3)
        assert_allclose(vals, [-1.0, -4.0, -9.0], atol=1e-8)

    def test_constant_shift(self):
        prob = ScalarProblem(q=lambda x: 2.5, interval=(0.0, np.pi))
        vals = find_eigenvalues(prob, 1)
        assert_allclose(vals, [1.5], atol=1e-8)

    def test_poschl_teller(self):
        vals = find_eigenvalues(sech2_problem(), 3)
        assert_allclose(vals, [1.25, 0.0, -0.75], atol=1e-4)

    @pytest.mark.parametrize("prob", [
        FREE, ScalarProblem(q=lambda x: 2.5, interval=(0.0, np.pi)),
    ], ids=["free", "constant-shift"])
    def test_flat_q_matches_at_an_interior_point(self, prob):
        q_sup, x_m, q_min = prufer._q_peak(prob)
        assert q_sup == q_min == prob.q(prob.a)
        assert prob.a < x_m < prob.b

    def test_double_well(self):
        # x_m sits in the deeper well (x = -8); the eigenfunctions of the
        # other well make the mismatch a staircase near their eigenvalues,
        # which the even splits pinch
        def q(x):
            return 3.0 / np.cosh((x - 8.0) / 2.0) ** 2 + 3.3 / np.cosh((x + 8.0) / 2.0) ** 2 - 1.0

        prob = ScalarProblem(q=q, interval=(-30.0, 30.0))
        assert prufer._q_peak(prob)[1] == pytest.approx(-7.98)
        vals = find_eigenvalues(prob, 4)
        # theta(b) multisection over the whole interval (1542ed0)
        assert_allclose(
            vals, [1.5081459324335182, 1.2500022282006484, 0.1744366977464553,
                   5.942136906125063e-06],
            rtol=0.0, atol=1e-10,
        )
        # the FD values carry an O(h^2) error near 1e-5 at h = 0.01;
        # Richardson extrapolation from h = 0.02 removes it
        fd = [oracle.eigenvalues(oracle.discretize_interval(q, -30.0, 30.0, h), k=4)
              for h in (0.02, 0.01)]
        assert_allclose(vals, (4.0 * fd[1] - fd[0]) / 3.0, rtol=0.0, atol=1e-8)

    def test_comparison_bound_brackets_on_the_first_shot(self, monkeypatch):
        shots = record_mismatch_shots(monkeypatch)
        find_eigenvalues(sech2_problem(), 3)
        # every later lambda lies inside the first bracket: no expansion shot
        hi, lo = shots[0].max(), shots[0].min()
        assert all(np.all((lams > lo) & (lams < hi)) for lams in shots[1:])

    def test_narrow_dip_is_bracketed_by_the_doubling_loop(self, monkeypatch):
        # a dip far narrower than _q_peak's sample spacing, centred between
        # two samples: no sample sees it, so the comparison bound from the
        # sampled minimum overshoots lambda_0.  A bare dip this narrow can
        # fall between the solver's stages; the mild bump around it puts x_m
        # beside it and makes the steps there short enough to resolve it.
        a, b = 0.0, np.pi
        spacing = (b - a) / 1000
        centre = a + 500.5 * spacing
        width = spacing / 6
        depth = 5.0 / (width * np.sqrt(np.pi))

        def q(x):
            return (np.exp(-((x - centre) / (2 * spacing)) ** 2)
                    - depth * np.exp(-((x - centre) / width) ** 2))

        prob = ScalarProblem(q=q, interval=(a, b))
        q_min = prufer._q_peak(prob)[2]
        assert q_min == 0.0 and q(centre) < -5000.0
        shots = record_mismatch_shots(monkeypatch)
        vals = find_eigenvalues(prob, 1)
        lo = q_min - 1.0 - 1.0
        assert vals[0] < lo
        # the second shot is the loop's one lambda below the first bracket
        assert len(shots[1]) == 1 and shots[1][0] < lo
        fd = [oracle.eigenvalues(oracle.discretize_interval(q, a, b, h), k=1)
              for h in (np.pi / 20000, np.pi / 40000)]
        assert_allclose(vals, (4.0 * fd[1] - fd[0]) / 3.0, rtol=0.0, atol=1e-8)

    def test_shots_that_disagree_on_a_narrow_dip_are_refused(self):
        # a bare dip far narrower than DOP853's step, between two _q_peak
        # samples: some shots of the search land a stage in it and some do
        # not, so the mismatch rises by radians between neighbouring lambdas
        a, b = 0.0, np.pi
        spacing = (b - a) / 1000
        centre = a + 500.2 * spacing
        width = 0.15 * spacing
        depth = 8.0 / (width * np.sqrt(np.pi))
        prob = ScalarProblem(q=lambda x: -depth * np.exp(-((x - centre) / width) ** 2),
                             interval=(a, b))
        with pytest.raises(SolverError, match="angle mismatch rises"):
            find_eigenvalues(prob, 1)

    # the widths scalar-spectrum draws; beyond beta ~ 0.8 the default rtol
    # alone puts the weakly bound -3 beta^2 some 2e-11 off the tight run
    @pytest.mark.parametrize("beta,x0", [(0.5, 0.0), (0.55, -1.5), (0.6, 2.0)])
    def test_sech_family_in_at_most_four_rounds(self, monkeypatch, beta, x0):
        pulse = zoo.sech_family_potential(beta, x0)
        prob = ScalarProblem(q=lambda x: float(pulse(x)[0, 0]), interval=(-40.0, 40.0))
        with monkeypatch.context() as tight_run:
            tight_run.setattr(prufer, "SEARCH_RTOL", 1e-13)
            tight = find_eigenvalues(prob, 3)
        shots = record_mismatch_shots(monkeypatch)
        vals = find_eigenvalues(prob, 3)
        assert len(shots) <= 4
        assert_allclose(vals, tight, rtol=0.0, atol=1e-11)
        assert_allclose(vals, [5.0 * beta**2, 0.0, -3.0 * beta**2], rtol=0.0, atol=1e-6)

    def test_poschl_teller_matches_fd_oracle(self):
        prob = sech2_problem()
        vals = find_eigenvalues(prob, 3)
        disc = oracle.discretize_interval(prob.q, -40.0, 40.0, 0.01)
        fd_vals = oracle.eigenvalues(disc, k=3)
        assert_allclose(vals, fd_vals, atol=2e-3)


class TestConjugatePoints:
    def test_no_points_above_spectrum(self):
        assert len(conjugate_points(FREE, 0.0)) == 0

    def test_three_points(self):
        pts = conjugate_points(FREE, -9.5)
        expected = np.array([1, 2, 3]) * np.pi / np.sqrt(9.5)
        assert_allclose(pts, expected, atol=1e-9)

    def test_count_matches_eigenvalue_count(self):
        prob = sech2_problem()
        for lam in (-0.5, 0.5, 1e-3):
            pts = conjugate_points(prob, lam)
            assert len(pts) == count_eigenvalues_above(prob, lam)


class TestZeroCounts:
    def test_free_ground_state_nodeless(self):
        assert eigenfunction_zero_count(FREE, -1.0) == 0

    def test_free_first_excited(self):
        assert eigenfunction_zero_count(FREE, -4.0) == 1

    def test_translation_mode_single_zero(self):
        prob = sech2_problem()
        lam1 = find_eigenvalues(prob, 2)[1]
        assert eigenfunction_zero_count(prob, lam1, residual_tol=1e-5) == 1
        # agree with the sign changes of the fd_oracle matrix's eigenvector
        disc = oracle.discretize_interval(prob.q, -40.0, 40.0, 0.02)
        vals, vecs = eig_banded(disc.band, lower=True, select="v",
                                select_range=(-0.5, 10.0))
        vec = vecs[:, -2]  # second-from-top eigenvalue ~ 0
        interior = vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))]
        sign_changes = int(np.sum(interior[:-1] * interior[1:] < 0))
        assert sign_changes == 1

    def test_non_eigenvalue_rejected(self):
        with pytest.raises(NotAnEigenvalueError):
            eigenfunction_zero_count(FREE, -2.0)


class TestProperties:
    def test_theta_end_monotone_decreasing_in_lambda(self):
        lams = np.linspace(-12.0, 3.0, 31)
        ends = [prufer_flow(FREE, lam, rtol=1e-10).theta_end for lam in lams]
        assert np.all(np.diff(ends) < 0.0)

    def test_crossing_transversality(self):
        # at every crossing of j pi the rhs equals cos^2(theta) = 1
        prob = sech2_problem()
        traj = prufer_flow(prob, -0.5, rtol=1e-10)
        for x in conjugate_points(prob, -0.5):
            theta = traj.theta_at(x)
            rhs = np.cos(theta) ** 2 + (prob.q(x) + 0.5) * np.sin(theta) ** 2
            assert rhs > 0.9

    def test_square_identity_random_fourier_bumps(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            coeffs = rng.standard_normal(3)
            phases = rng.uniform(0, 2 * np.pi, 3)
            a, b = -8.0, 8.0

            def q(x, c=coeffs, p=phases):
                return float(
                    sum(c[k] * np.cos((k + 1) * np.pi * x / 8.0 + p[k]) for k in range(3))
                )

            prob = ScalarProblem(q=q, interval=(a, b))
            lam = float(rng.uniform(-2.0, 1.0))
            try:
                n_conj = len(conjugate_points(prob, lam))
                n_count = count_eigenvalues_above(prob, lam)
            except BoundaryResonanceError:
                continue
            n_fd = reference.scalar_count_above(q, a, b, 0.01, lam)
            assert n_conj == n_count == n_fd

    def test_interlacing(self):
        # counts differing by one: the new conjugate point set interlaces
        prob = sech2_problem()
        upper = conjugate_points(prob, 0.5)   # 1 point
        lower = conjugate_points(prob, -0.5)  # 2 points
        assert len(lower) == len(upper) + 1
        assert lower[0] < upper[0] < lower[1]


class TestContinuityCheck:
    def test_smooth_passes(self):
        ok, _ = reference.continuity_metric(sech2_problem())
        assert ok

    def test_jump_fails(self):
        prob = ScalarProblem(q=lambda x: 0.0 if x < 0.5 else 5.0, interval=(0.0, 1.0))
        ok, detail = reference.continuity_metric(prob)
        assert not ok
        assert "contract" in detail
