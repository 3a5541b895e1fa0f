import dataclasses
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import reference
import zoo
from reference import constant_model
from maslovstab import evans, flow, oracle, prufer, symplectic
from maslovstab.cli import main
from maslovstab.errors import (
    ContourError,
    CountMismatchError,
    InconsistencyError,
    ModelValidationError,
    NonHyperbolicError,
    NonLagrangianError,
    OptionsError,
)
from maslovstab.evans import compare_counts
from maslovstab.flow import (
    FlowOptions,
    detect_conjugate_points,
    lambda_max_bound,
    maslov_square,
)
from maslovstab.models import builtin, from_config

SECH = builtin("scalar_sech_pulse")
FRONT = builtin("allen_cahn_front")
DEMO = builtin("coupled_gradient_demo")


class TestSystemMatrix:
    def test_propagate_spans_the_exponential_plane(self):
        # for constant Q the flow over [0, 1] is expm(J B) with
        # J B = [[0, I], [lambda I - Q, 0]]
        q = np.array([[-1.0, 0.4], [0.4, -2.0]])
        model = constant_model(q)
        opts = FlowOptions(truncation=12.0).resolve(model)
        u0 = np.vstack([np.eye(2), [[0.3, -0.7], [-0.7, 1.1]]])
        for lam in (0.5, 1.5 + 0.8j):
            init = u0[None].astype(np.result_type(lam, float))
            (frame,) = flow.propagate(model, np.array([lam]), init, [0.0, 1.0], opts)[-1]
            jb = np.block([[np.zeros((2, 2)), np.eye(2)],
                           [lam * np.eye(2) - q, np.zeros((2, 2))]])
            expected = scipy.linalg.expm(jb) @ u0
            assert reference.plane_distance(frame, expected) <= 1e-8

    @staticmethod
    def short_step(model, lam, x, u0, delta):
        """propagate over [x - delta, x + delta] at one real lambda."""
        opts = FlowOptions().resolve(model)
        return flow.propagate(model, np.array([lam]), u0[None],
                              [x - delta, x + delta], opts)[-1, 0]

    def test_sech_center(self):
        # over a short step the plane moves by expm(2 delta J B(0; 0)),
        # with J B = [[0, 1], [-2, 0]] at the centre of the sech pulse
        u0 = np.array([[1.0], [0.5]])
        delta = 1e-2
        frame = self.short_step(SECH, 0.0, 0.0, u0, delta)
        jb = np.array([[0.0, 1.0], [-2.0, 0.0]])
        expected = scipy.linalg.expm(2 * delta * jb) @ u0
        assert reference.plane_distance(frame, expected) <= 1e-5

    def test_far_field_limit(self):
        # at x = -200 the potential is its limit to 1e-12, J B = [[0, 1], [1, 0]]
        u0 = np.array([[1.0], [-0.3]])
        frame = self.short_step(SECH, 0.0, -200.0, u0, 0.5)
        expected = scipy.linalg.expm(np.array([[0.0, 1.0], [1.0, 0.0]])) @ u0
        assert reference.plane_distance(frame, expected) <= 1e-8

    def test_coupled_at_lambda_one(self):
        u0 = np.vstack([np.eye(2), [[0.3, -0.7], [-0.7, 1.1]]])
        delta = 1e-2
        frame = self.short_step(DEMO, 1.0, 0.0, u0, delta)
        jb = np.zeros((4, 4))
        jb[:2, 2:] = np.eye(2)
        jb[2:, :2] = np.diag([-1.0, 0.0])
        expected = scipy.linalg.expm(2 * delta * jb) @ u0
        assert reference.plane_distance(frame, expected) <= 1e-5

    def test_hamiltonian_identity(self):
        # J B is Hamiltonian for symmetric B, so the flow is symplectic and
        # carries a Lagrangian plane to a Lagrangian plane
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-5, 5)
            lam = rng.uniform(-1, 4)
            s = rng.standard_normal((2, 2))
            u0 = np.vstack([np.eye(2), s + s.T])
            frame = self.short_step(DEMO, lam, x, u0, 0.5)
            assert reference.check_lagrangian(frame).passed
            a, b = frame[:2], frame[2:]
            assert np.max(np.abs(a.T @ b - b.T @ a)) <= 1e-8


def splitting(model, lam, side="minus"):
    """Unstable and stable frames and rates of the asymptotic system at lam."""
    unstable, stable, rates = flow._asymptotic_frames(model, np.array([float(lam)]), side)
    return unstable[0], stable[0], rates[0]


class TestAsymptoticSplitting:
    def test_sech_lambda_zero(self):
        unstable, stable, rates = splitting(SECH, 0.0)
        assert_allclose(rates, [1.0])
        assert_allclose(unstable.ravel() / unstable[0, 0], [1.0, 1.0])

    def test_sech_lambda_three(self):
        unstable, _, rates = splitting(SECH, 3.0)
        assert_allclose(rates, [2.0])
        ratio = unstable[1, 0] / unstable[0, 0]
        assert_allclose(ratio, 2.0)

    def test_coupled_rates(self):
        _, _, rates = splitting(DEMO, 0.0)
        assert_allclose(np.sort(rates), [1.0, np.sqrt(2.0)])

    def test_frames_lagrangian(self):
        for lam in (0.0, 1.0, 2.5):
            unstable, stable, _ = splitting(DEMO, lam)
            assert reference.check_lagrangian(unstable).passed
            assert reference.check_lagrangian(stable).passed

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            splitting(SECH, -1.5)

    @pytest.mark.parametrize("model", [SECH, DEMO], ids=["sech", "demo"])
    def test_bottom_edge_frames_sit_in_the_positive_cone(self, model):
        # X = V, Y = V diag(mu) with mu > 0: sym(X^T Y) = diag(mu) > 0 on the
        # whole bottom edge, so X is never singular there
        lams = np.geomspace(1e-3, 1e12, 65)
        unstable, _, rates = flow._asymptotic_frames(model, lams, "minus")
        n = model.n
        xty = np.swapaxes(unstable[:, :n], 1, 2) @ unstable[:, n:]
        lows = np.linalg.eigvalsh(0.5 * (xty + np.swapaxes(xty, 1, 2)))[:, 0]
        assert_allclose(lows, rates.min(axis=1), rtol=1e-12)
        assert np.all(lows > 0.0)


REAL_LAMS = np.linspace(0.2, 2.8, 7)
CIRCLE_LAMS = 1.25 + 0.8 * np.exp(2j * np.pi * (np.arange(7) + 0.25) / 7)
# every entry of Q coupled, and off-centre so that Q(-x) != Q(x): a frame
# that reads the wrong columns, or Q at the wrong sign of x, cannot hide
# there as it can at n = 1, at K = 1 or in an even potential
BUMP3 = zoo.coupled_bump3(shift=1.5)


class TestPropagate:
    @pytest.mark.parametrize("model, lams", [
        (SECH, REAL_LAMS), (SECH, CIRCLE_LAMS), (DEMO, REAL_LAMS), (DEMO, CIRCLE_LAMS),
        (BUMP3, REAL_LAMS), (BUMP3, CIRCLE_LAMS),
    ])
    def test_batch_matches_single_runs(self, model, lams):
        # solve_ivp's error norm is an RMS over the whole state, so a batch
        # could hide one lambda's error; each member must match its own run,
        # and with the last three frames mirrored, those a run of the
        # reflected model Q(-x)
        opts = FlowOptions().resolve(model)
        L = opts.truncation
        xs = [-L, 0.0, L]
        init, _, _ = flow._asymptotic_frames(model, lams, "minus")
        reflected = dataclasses.replace(model, potential=lambda x: model.potential(-x),
                                        potential_grid=None,
                                        q_minus=model.q_plus, q_plus=model.q_minus)
        for mirrored in (0, 3):
            batch = flow.propagate(model, lams, init, xs, opts, mirrored=mirrored)
            assert batch.shape == (3,) + init.shape
            for k in range(len(lams)):
                own = reflected if k >= len(lams) - mirrored else model
                single = flow.propagate(own, lams[k:k + 1], init[k:k + 1], xs, opts)
                for i in (1, 2):
                    assert reference.plane_distance(batch[i, k], single[i, 0]) <= 1e-8

    def test_zero_length_span_returns_qr_of_input(self):
        rng = np.random.default_rng(5)
        frames = rng.normal(size=(3, 4, 2))
        opts = FlowOptions().resolve(DEMO)
        out = flow.propagate(DEMO, np.array([0.5, 1.0, 2.0]), frames, [1.5, 1.5], opts)
        expected = symplectic.qr_positive(frames)
        assert_allclose(out[0], expected, atol=1e-15)
        assert_allclose(out[1], expected, atol=1e-15)

    @pytest.mark.parametrize("grid", [False, True], ids=["pointwise", "array"])
    @pytest.mark.parametrize("mirrored", [0, 1])
    def test_failed_segment_names_where_the_solver_stopped(self, grid, mirrored):
        # Q is NaN past x = 0.5 only, which no grid point holds: the failed
        # segment's check samples the last attempted step's nodes (with the
        # mirrored frame, their mirrors) and names one just past 0.5
        def on_grid(xs):
            return np.where(xs > 0.5, np.nan, -1.0)[:, None, None]

        model = dataclasses.replace(constant_model([[-1.0]]),
                                    potential=lambda x: on_grid(np.array([x]))[0],
                                    potential_grid=on_grid if grid else None)
        lams = np.array([0.5, 0.5])
        init, _, _ = flow._asymptotic_frames(model, lams, "minus")
        # a mirrored frame reads Q(-x): it meets the NaN at x < -0.5
        xs = [0.0, -1.0] if mirrored else [0.0, 1.0]
        with pytest.raises(ModelValidationError) as info:
            flow.propagate(model, lams, init, xs, FlowOptions(), mirrored=mirrored)
        x = float(info.value.args[0].rpartition("x = ")[2])
        assert 0.5 < x < 0.5 + 1e-12


class TestAccuracy:
    """The default tolerance against an rtol = 1e-11 reference at
    lambda_* = 1e-3: each segment's carried first step is error-controlled
    like every other step."""

    TIGHT = FlowOptions(rtol=1e-11)

    @pytest.mark.parametrize("model", [SECH, FRONT, DEMO], ids=lambda m: m.name)
    def test_square_events_match_a_tight_run(self, model):
        default = maslov_square(model, 1e-3)
        tight = maslov_square(model, 1e-3, self.TIGHT)
        for edge in ("left_events", "top_events"):
            got, ref = getattr(default, edge), getattr(tight, edge)
            assert len(got) == len(ref)
            for a, b in zip(got, ref):
                assert (a.multiplicity, a.direction) == (b.multiplicity, b.direction)
                assert abs(a.param - b.param) <= 1e-8

    @pytest.mark.parametrize("model", [SECH, FRONT, DEMO], ids=lambda m: m.name)
    def test_contour_phases_match_a_tight_run(self, model):
        opts = FlowOptions().resolve(model)
        lambda_inf = flow.lambda_ceiling(model, 1e-3, opts.truncation)
        points = flow._integrated_points(
            flow.Contour.enclosing(1e-3, lambda_inf, samples=64))
        sweep = (-opts.truncation, 0.0)
        got = flow.evans_determinant(model, points, opts, sweep)[0]
        ref = flow.evans_determinant(model, points, self.TIGHT.resolve(model), sweep)[0]
        # orthonormal frames rescale E by a positive factor: compare phases
        assert np.max(np.abs(np.angle(got / ref))) <= 1e-6


# Poschl-Teller wells whose depths s(s + 1) = 425 and 105 put no eigenvalue
# at 0 (420 or 110 would): one eigenvalue above 1e-3 in each model
STIFF_SCALAR = from_config({
    "n": 1, "kind": "pulse", "decay_rate": 2.0,
    "potential": {"kind": "expression", "entries": [["-400 + 425*sech(x)**2"]]},
    "q_minus": [[-400.0]], "q_plus": [[-400.0]],
})
STIFF_PAIR = from_config({
    "n": 2, "kind": "pulse", "decay_rate": 1.0,
    "potential": {"kind": "expression", "entries": [
        ["-1 + 3*sech(x/2)**2", "0"], ["0", "-100 + 105*sech(x)**2"]]},
    "q_minus": [[-1.0, 0.0], [0.0, -100.0]],
    "q_plus": [[-1.0, 0.0], [0.0, -100.0]],
})


class TestStrongTails:
    """Tails where one unit of x grows a column by e^20 (n = 1), or splits
    the columns by e^9 (n = 2), against a budget of e^9.2 per segment."""

    @pytest.mark.parametrize("model, event", [
        (STIFF_SCALAR, 0.294667151), (STIFF_PAIR, 0.001066631),
    ], ids=["scalar", "pair"])
    def test_counts_agree_and_events_match_a_tight_run(self, model, event):
        rep = compare_counts(model)
        assert (rep.conjugate_count, rep.winding_count, rep.oracle_count) == (1, 1, 1)
        default = maslov_square(model, 1e-3)
        tight = maslov_square(model, 1e-3, FlowOptions(rtol=1e-11))
        assert default.net_index == tight.net_index == 0
        # the scalar's top event, a secant root of E at mu ~ 20, sits 3.5e-8
        # from the tight run, as it did with a renormalization every unit
        for edge, tol in (("left_events", 1e-8), ("top_events", 5e-8)):
            got, ref = getattr(default, edge), getattr(tight, edge)
            assert [(e.multiplicity, e.direction) for e in got] == \
                [(e.multiplicity, e.direction) for e in ref]
            assert all(abs(a.param - b.param) <= tol for a, b in zip(got, ref))
        (left,) = default.left_events
        assert abs(left.param - event) < 1e-9

    @pytest.mark.parametrize("model", [STIFF_SCALAR, STIFF_PAIR], ids=["scalar", "pair"])
    def test_frames_stay_finite(self, model):
        opts = FlowOptions().resolve(model)
        _, frames = flow._unstable_path(model, 1e-3, opts)
        lams = np.array([1e-3, 2.0 + 1.0j])
        values, u_minus = flow.evans_determinant(model, lams, opts,
                                                 flow._unit_grid(-opts.truncation, 0.0))
        for stack in (frames, u_minus, values):
            assert np.all(np.isfinite(stack))

    def test_left_tail_segments_keep_the_growth_budget(self, monkeypatch):
        # on the conjugate path the frame grows like e^{20 x} in the left
        # tail; after the first unit segment, the R diagonal keeps each
        # segment's growth |u(s1)| / |u(s0)| within e^{ln(1/rtol) / 2}
        segments = []
        solve = flow.solve_ivp

        def recording(fun, t_span, y0, **kwargs):
            sol = solve(fun, t_span, y0, **kwargs)
            growth = np.log(np.linalg.norm(sol.y) / np.linalg.norm(y0))
            segments.append((float(t_span[1] - t_span[0]), float(t_span[1]), growth))
            return sol

        monkeypatch.setattr(flow, "solve_ivp", recording)
        opts = FlowOptions().resolve(STIFF_SCALAR)
        flow._unstable_path(STIFF_SCALAR, 1e-3, opts)
        budget = 0.5 * np.log(1.0 / opts.rtol)
        assert segments[0][0] <= 1.0 and segments[0][2] > 2 * budget
        tail = [growth for _, end, growth in segments[1:] if end < -3.0]
        assert len(tail) >= 12
        assert max(tail) <= budget * (1.0 + 1e-6)


def unstable_path(model, lam, opts=None):
    """Sample grid and frames of the plane decaying at -infinity."""
    return flow._unstable_path(model, lam, (opts or FlowOptions()).resolve(model))


class TestEvolve:
    def test_constant_model_invariant_frame(self):
        model = constant_model([[-1.0]])
        _, frames = unstable_path(model, 0.5, FlowOptions(truncation=12.0))
        ref, _, _ = splitting(model, 0.5)
        dists = [reference.plane_distance(f, ref) for f in frames]
        assert max(dists) < 1e-6

    def test_sech_above_top_eigenvalue_never_vanishes(self):
        _, frames = unstable_path(SECH, 2.0)
        dets = np.linalg.det(frames[:, :1])
        assert np.min(np.abs(dets)) > 1e-4

    def test_sech_near_zero_vanishes_once(self):
        _, frames = unstable_path(SECH, 1e-3)
        dets = np.linalg.det(frames[:, :1])
        signs = np.sign(dets)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes == 1

    def test_lagrangian_residual_small(self):
        for model, lam in ((SECH, 1e-3), (DEMO, 0.5), (FRONT, 1.0)):
            _, frames = unstable_path(model, lam)
            drift = np.max(reference.check_lagrangian(frames).asymmetry)
            assert drift < reference.LAGR_TOL

    def test_truncation_adequacy_enforced(self):
        with pytest.raises(OptionsError):
            detect_conjugate_points(SECH, 1.0, FlowOptions(truncation=3.0))

    def test_drifted_frame_is_rejected_at_its_x(self, monkeypatch, capsys):
        # one frame of the path moved off the Lagrangian planes by more than
        # DRIFT_TOL: the unitarity check of the phase count names its x
        path = flow._unstable_path
        j = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        drifted_at = []

        def drifted(model, lambda_, opts):
            xs, frames = path(model, lambda_, opts)
            i = len(xs) // 3
            frames = frames.copy()
            frames[i] = frames[i] + 1e-6 * j @ frames[i] @ k
            drifted_at.append((xs[i], reference.check_lagrangian(frames[i]).asymmetry))
            return xs, frames

        monkeypatch.setattr(flow, "_unstable_path", drifted)
        with pytest.raises(NonLagrangianError) as info:
            detect_conjugate_points(DEMO, 1e-3)
        ((x, asymmetry),) = drifted_at
        assert asymmetry > symplectic.DRIFT_TOL
        assert f"frame at parameter {float(x)!r} is not Lagrangian" in str(info.value)
        code = main(["--json-errors", "conjugate", "--model", "coupled_gradient_demo",
                     "--lambda-star", "1e-3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "NonLagrangianError"


class TestDetectConjugatePoints:
    def test_sech_near_zero(self):
        events = detect_conjugate_points(SECH, 1e-3)
        assert sum(e.multiplicity for e in events) == 1

    def test_sech_below_translation(self):
        events = detect_conjugate_points(SECH, -0.5)
        assert sum(e.multiplicity for e in events) == 2

    def test_front_stable(self):
        events = detect_conjugate_points(FRONT, 1e-3)
        assert events == ()

    def test_counts_match_oracle(self):
        for model, lam in (
            (SECH, 1e-3), (SECH, -0.5), (FRONT, 1e-3), (DEMO, 1e-3), (DEMO, -0.5)
        ):
            events = detect_conjugate_points(model, lam)
            got = sum(e.multiplicity for e in events)
            expected = oracle.oracle_count_above(model, 40.0, 0.02, lam)
            assert got == expected, f"{model.name} at {lam}"

    def test_directions_all_positive(self):
        # conjugate points cross counterclockwise: +1 in this convention
        for model, lam in ((SECH, 1e-3), (SECH, -0.5), (DEMO, -0.5)):
            for e in detect_conjugate_points(model, lam):
                assert e.direction == 1

    def test_angle_count_mismatch_raises(self, monkeypatch):
        angle_count = flow._angle_count
        unstable_path = flow._unstable_path
        paths = []

        def off_by_one(*args):
            return angle_count(*args) + 1.0

        def recording(model, lambda_, opts):
            paths.append(lambda_)
            return unstable_path(model, lambda_, opts)

        monkeypatch.setattr(flow, "_angle_count", off_by_one)
        monkeypatch.setattr(flow, "_unstable_path", recording)
        with pytest.raises(CountMismatchError,
                           match=r"angle count 2\.0000\d* disagrees with the 1 signed "
                                 r"w-eigenvalue crossings at lambda = 0\.001"):
            detect_conjugate_points(SECH, 1e-3)
        assert paths == [1e-3]

    @pytest.mark.parametrize("model", [SECH, FRONT, DEMO], ids=["sech", "front", "demo"])
    @pytest.mark.parametrize("lam", [1e-3, -0.5, 0.7, 1.25 + 1e-9, 1.25 - 1e-9])
    def test_angle_count_equals_the_signed_crossings(self, model, lam):
        opts = FlowOptions().resolve(model)
        events, (xs, frames) = flow._conjugate_points_and_path(model, lam, opts)
        count = sum(e.signed_count for e in events)
        assert abs(flow._angle_count(model, lam, xs, frames) - count) < 1e-4

    def test_near_tolerance_n2_bump_counts_on_every_channel(self):
        # an n = 2 bump whose path frames carry a Lagrangian residual of
        # 2.2e-8, above LAGR_TOL but inside the drift limit DRIFT_TOL
        rng = np.random.default_rng(102)
        for _ in range(23):
            model = zoo.random_bump_model(rng)
            lam = rng.uniform(0.001, 0.5)
        assert model.n == 2 and abs(lam - 0.046105) < 1e-6
        rep = maslov_square(model, lam)
        assert rep.net_index == 0 and sum(e.signed_count for e in rep.left_events) == 2
        # the oracle counts at h = 0.02 and 0.01
        report = compare_counts(model, epsilon_shift=lam)
        assert (report.conjugate_count, report.winding_count, report.oracle_count) == (2, 2, 2)


COUPLED_2X2 = {
    "n": 2, "kind": "custom", "decay_rate": 1.0,
    "potential": {"kind": "expression", "entries": [
        ["-1 + 3*sech(x/2)**2", "0.5*sech(x)"],
        ["0.5*sech(x)", "-2 + 2*sech(x)**2"],
    ]},
    "q_minus": [[-1.0, 0.0], [0.0, -2.0]],
    "q_plus": [[-1.0, 0.0], [0.0, -2.0]],
}


class TestLambdaMaxBound:
    def test_values(self):
        for model, value in ((SECH, 3.0), (FRONT, 2.0), (DEMO, 3.0)):
            L = FlowOptions().resolve(model).truncation
            assert_allclose(lambda_max_bound(model, L), value, atol=1e-6)

    @pytest.mark.parametrize("model", [SECH, FRONT, DEMO, from_config(COUPLED_2X2)],
                             ids=["sech", "front", "demo", "coupled-2x2"])
    def test_equals_the_per_sample_loop(self, model):
        L = FlowOptions().resolve(model).truncation
        top = -np.inf
        for x in np.linspace(-L, L, 4001):
            q = model.q(x)
            top = max(top, float(q[0, 0] if model.n == 1 else np.linalg.eigvalsh(q)[-1]))
        got = np.float64(lambda_max_bound(model, L))
        assert np.array_equal(got.view(np.int64), np.float64(1.0 + top).view(np.int64))


class TestWorkBudget:
    def test_path_phases_need_no_reduction_per_sample(self, monkeypatch):
        calls = []
        reduction = symplectic.unitary_reduction

        def counting(frame, *args, **kwargs):
            calls.append(frame)
            return reduction(frame, *args, **kwargs)

        monkeypatch.setattr(symplectic, "unitary_reduction", counting)
        samples = len(flow._sample_grid(SECH, 1e-3, FlowOptions().resolve(SECH)))
        assert len(detect_conjugate_points(SECH, 1e-3)) == 1
        # only the refinement of the one crossing reduces single frames
        assert 0 < len(calls) < samples / 10

    def test_crossing_refinement_integrates_no_span_twice(self, monkeypatch):
        spans = []
        solve = flow.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            spans.append(tuple(map(float, t_span)))
            return solve(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(flow, "solve_ivp", recording)
        events = detect_conjugate_points(SECH, 1e-3)
        # the root search reuses the phase at the bracket's upper end
        assert len(spans) == len(set(spans))
        # pinned bit for bit
        assert events == (symplectic.CrossingEvent(0.0010666317715014035, 1, 1),)

    def test_sweep_segments_carry_the_step_and_skip_the_interpolant(self, monkeypatch):
        calls = []
        solve = flow.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            sol = solve(fun, t_span, *args, **kwargs)
            calls.append((t_span, kwargs, sol.nfev))
            return sol

        monkeypatch.setattr(flow, "solve_ivp", recording)
        opts = FlowOptions().resolve(SECH)
        lams = np.linspace(1e-3, flow.lambda_ceiling(SECH, 1e-3, opts.truncation), 129)
        grid = flow._unit_grid(-opts.truncation, 0.0)
        flow.evans_determinant(SECH, lams, opts, grid)
        # one call per renormalization segment: one grid cell, then four at a
        # time, 6 from -L to 0 carrying U_- and the reflected U_+ together,
        # where two legs made 6 + 6 and one call per cell 21 + 21
        assert len(calls) == 6
        # the two legs took 1,643 RHS evaluations; one run took 904 while
        # every step of a segment with a frame inside built the dense
        # stages, and takes 784 with them only on the steps holding a frame
        assert sum(nfev for _, _, nfev in calls) <= 784
        # every end state is the solver's; the interpolant is built only for
        # the frames of [-L, 0]'s unit grid strictly inside a segment
        for (a, b), kw, _ in calls:
            assert not kw.get("dense") and -opts.truncation <= a < b <= 0.0
            inside = np.any((grid > a) & (grid < b))
            assert (len(kw.get("points", ())) > 0) == bool(inside)

    def test_contour_winding_builds_no_interpolant(self, monkeypatch):
        calls = []
        solve = flow.solve_ivp

        def recording(fun, t_span, *args, **kwargs):
            sol = solve(fun, t_span, *args, **kwargs)
            calls.append((bool(kwargs.get("dense")) or len(kwargs.get("points", ())) > 0,
                          sol.nfev))
            return sol

        monkeypatch.setattr(flow, "solve_ivp", recording)
        opts = FlowOptions().resolve(SECH)
        contour = flow.Contour.enclosing(1e-3, flow.lambda_ceiling(SECH, 1e-3,
                                                                   opts.truncation))
        assert contour.samples == 256 and contour.center.imag == 0
        assert evans.winding_number(SECH, contour, opts) == 1
        # the winding reads E at x = 0 only: one run of 6 segments, and no
        # segment builds the interpolant (two legs with frames on the unit
        # grid took 12 calls and 1,727 RHS evaluations)
        assert [dense for dense, _ in calls] == [False] * 6
        assert sum(nfev for _, nfev in calls) <= 775

    @pytest.mark.parametrize("model, lam, opts", [
        (FRONT, 0.02, None),
        (constant_model([[-1.0]]), 1e-3, FlowOptions(truncation=12.0)),
    ], ids=["front", "constant"])
    def test_square_without_spans_checks_the_ceiling_once(self, monkeypatch, model,
                                                          lam, opts):
        shapes = []
        check = flow._right_edge_empty

        def recording(xs, frames, lambda_inf):
            shapes.append(frames.shape)
            return check(xs, frames, lambda_inf)

        monkeypatch.setattr(flow, "_right_edge_empty", recording)
        rep = maslov_square(model, lam, opts)
        assert rep.top_events == () and rep.right_events == ()
        # one frame per renormalization point of [-L, L]
        L = (opts or FlowOptions()).resolve(model).truncation
        assert shapes == [(2 * int(np.ceil(L)) + 1, 2, 1)]


class TestMaslovSquare:
    def test_sech_near_zero(self):
        rep = maslov_square(SECH, 1e-3)
        assert len(rep.left_events) == 1
        assert len(rep.top_events) == 1
        assert rep.right_events == ()
        assert rep.bottom_events == ()
        assert rep.net_index == 0
        assert abs(rep.top_events[0].param - 1.25) < 1e-3

    def test_sech_below_translation(self):
        rep = maslov_square(SECH, -0.5)
        assert len(rep.left_events) == 2
        assert len(rep.top_events) == 2
        assert rep.net_index == 0
        tops = sorted(e.param for e in rep.top_events)
        # 1.25 = -0.5 + 64 * 3.5 / 128 sits exactly on a top-edge grid point
        assert abs(tops[0] - 0.0) < 1e-6
        assert abs(tops[1] - 1.25) < 1e-6

    def test_spectrum_above_the_ceiling_raises(self, monkeypatch):
        # lambda_inf = 1 leaves the eigenvalue 1.25 above it: U_-(x; 1) meets
        # the Dirichlet plane, and S = Y X^-1 turns indefinite on the way;
        # its most negative frame lies on the [0, L] half
        monkeypatch.setattr(flow, "lambda_ceiling", lambda *args: 1.0)
        with pytest.raises(InconsistencyError,
                           match=r"lambda_inf = 1.0 leaves S = Y X\^-1 > 0 at x = 0.9824: "
                                 r"smallest eigenvalue of sym\(X\^T Y\) is -3.268e-01"):
            maslov_square(SECH, 1e-3)

    def test_ceiling_frames_stay_in_the_positive_cone(self, monkeypatch):
        lows = []
        check = flow._right_edge_empty

        def recording(xs, frames, lambda_inf):
            xty = np.swapaxes(frames[:, :1], 1, 2) @ frames[:, 1:]
            lows.append(float(np.min(xty)))
            return check(xs, frames, lambda_inf)

        monkeypatch.setattr(flow, "_right_edge_empty", recording)
        maslov_square(SECH, 1e-3)
        # S(x) stays near sqrt(3 - Q(x)), between 1 and 2, so on orthonormal
        # frames X^T S X = s / (1 + s^2) stays near 0.4-0.5, far above the limit
        assert len(lows) == 1 and lows[0] > 0.3

    def test_constant_model_empty(self):
        model = constant_model([[-1.0]])
        rep = maslov_square(model, 1e-3, FlowOptions(truncation=12.0))
        assert rep.left_events == ()
        assert rep.top_events == ()
        assert rep.net_index == 0

    def test_monotonicity_of_directions(self):
        for model, lam in ((SECH, 1e-3), (SECH, -0.5), (DEMO, -0.5)):
            rep = maslov_square(model, lam)
            left_dirs = {e.direction for e in rep.left_events}
            top_dirs = {e.direction for e in rep.top_events}
            if rep.left_events:
                assert left_dirs == {1}
            if rep.top_events:
                assert top_dirs == {-1}

    def _fake_top_edge(self, monkeypatch, fake):
        """Top edge of the sech square with E replaced by fake(lams); the
        frames that give directions still come from the real determinant."""
        determinant = flow.evans_determinant

        def faked(model, lams, opts, xs):
            return fake(lams), determinant(model, lams, opts, xs)[1]

        monkeypatch.setattr(flow, "evans_determinant", faked)
        return flow._top_edge(SECH, 1e-3, 3.0, FlowOptions().resolve(SECH))

    def test_double_zero_is_one_event_of_multiplicity_two(self, monkeypatch):
        # E never changes sign at a double zero; the dip's winding counts it
        (event,) = self._fake_top_edge(monkeypatch, lambda lams: (lams - 0.3123) ** 2)
        assert event.multiplicity == 2
        assert abs(event.param - 0.3123) < 3.0 / 128

    def test_dip_without_a_zero_is_no_event(self, monkeypatch):
        # zeros at 0.3123 +- 0.1i lie outside the dip's circle
        assert self._fake_top_edge(
            monkeypatch, lambda lams: (lams - 0.3123) ** 2 + 1e-2) == ()

    def test_more_sign_changes_than_winding_raises(self, monkeypatch):
        # a sign change on the real axis that the circle does not wind around
        def fake(lams):
            return np.where(lams.imag == 0, lams.real - 0.3123, 1.0)

        with pytest.raises(CountMismatchError, match="exceed its winding 0"):
            self._fake_top_edge(monkeypatch, fake)

    @pytest.mark.parametrize("lam", [-0.5, -0.2])
    def test_demo_double_eigenvalue_at_zero(self, lam):
        # the demo's two blocks share the eigenvalue 0; 1.25 is simple
        rep = maslov_square(DEMO, lam)
        assert sum(e.multiplicity for e in rep.top_events) == 3
        (double,) = [e for e in rep.top_events if e.multiplicity == 2]
        assert abs(double.param) < 1e-3
        assert rep.net_index == 0


PAIRED = json.loads(
    (pathlib.Path(__file__).parent / "paired_eigenvalues.json").read_text())


class TestPairedEigenvalues:
    """Sampled bumps with two eigenvalues inside one cell of the top-edge grid."""

    @pytest.mark.parametrize("case", PAIRED, ids=[c["source"] for c in PAIRED])
    def test_square_balances(self, case):
        rep = maslov_square(from_config(case["doc"]), case["lambda_star"])
        assert sum(e.multiplicity for e in rep.left_events) == 2
        assert [e.multiplicity for e in rep.top_events] == [1, 1]
        assert rep.net_index == 0
        tops = sorted(e.param for e in rep.top_events)
        assert_allclose(tops, sorted(case["eigenvalues"]), atol=2e-3, rtol=0)


class TestCountUnstable:
    """The pulse check in the conjugate channel of ``compare_counts``."""

    def test_sech(self, monkeypatch):
        # a pulse with no conjugate point contradicts the instability theorem
        monkeypatch.setattr(flow, "detect_conjugate_points", lambda *args: ())
        with pytest.raises(InconsistencyError, match="epsilon_shift = 0.001"):
            compare_counts(SECH)

    def test_front(self):
        # a front with no conjugate point is not a contradiction
        assert FRONT.kind != "pulse"
        rep = compare_counts(FRONT)
        assert rep.conjugate_count == 0 and rep.agree

    def test_demo_matches_oracle(self):
        # the demo stacks one pulse block (eigenvalue 1.25) and one front
        # block (top eigenvalue 0, below the shift): the union count is 1
        rep = compare_counts(DEMO)
        assert rep.oracle_count == 1
        assert rep.conjugate_count == 1
        assert rep.agree

    def test_unstable_essential_spectrum_rejected(self):
        with pytest.raises(ContourError, match="essential spectrum is unstable"):
            compare_counts(constant_model([[0.5]]))


class TestRobustness:
    def test_truncation_doubling_preserves_counts_and_positions(self):
        base = FlowOptions(rtol=1e-10).resolve(SECH)
        doubled = FlowOptions(truncation=2 * base.truncation, rtol=1e-10)
        ev1 = detect_conjugate_points(SECH, -0.5, base)
        ev2 = detect_conjugate_points(SECH, -0.5, doubled)
        assert len(ev1) == len(ev2)
        for a, b in zip(ev1, ev2):
            assert abs(a.param - b.param) < 1e-6

    def test_scalar_consistency_with_prufer(self, monkeypatch):
        monkeypatch.setattr(prufer, "COUNT_RTOL", 1e-12)
        opts = FlowOptions(rtol=1e-11)
        for model, lam in ((SECH, 1e-3), (SECH, -0.5), (FRONT, 0.5)):
            resolved = opts.resolve(model)
            L = resolved.truncation
            events = detect_conjugate_points(model, lam, resolved)
            prob = prufer.ScalarProblem(
                q=lambda x, m=model: float(m.q(x)[0, 0]), interval=(-L, L)
            )
            expected = prufer.conjugate_points(prob, lam)
            assert len(events) == len(expected)
            for e, x_ref in zip(events, expected):
                assert abs(e.param - x_ref) < 1e-6
