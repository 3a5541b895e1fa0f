import json
import pathlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference
from maslovstab import flow, oracle, prufer, symplectic
from maslovstab.errors import CountMismatchError, NonHyperbolicError, OptionsError
from maslovstab.evans import compare_counts
from maslovstab.flow import (
    FlowOptions,
    asymptotic_splitting,
    count_unstable_eigenvalues,
    detect_conjugate_points,
    evolve_unstable_frame,
    lambda_max_bound,
    maslov_square,
    system_matrix,
)
from maslovstab.models import builtin, constant_model, from_config

SECH = builtin("scalar_sech_pulse")
FRONT = builtin("allen_cahn_front")
DEMO = builtin("coupled_gradient_demo")


class TestSystemMatrix:
    def test_sech_center(self):
        assert_allclose(system_matrix(SECH, 0.0, 0.0), [[0.0, 1.0], [-2.0, 0.0]])

    def test_far_field_limit(self):
        m = system_matrix(SECH, -200.0, 0.0)
        assert_allclose(m, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_coupled_at_lambda_one(self):
        m = system_matrix(DEMO, 0.0, 1.0)
        expected = np.zeros((4, 4))
        expected[:2, 2:] = np.eye(2)
        expected[2:, :2] = np.diag([-1.0, 0.0])
        assert_allclose(m, expected, atol=1e-14)

    def test_hamiltonian_identity(self):
        # (JB)^T J + J (JB) = 0 exactly for symmetric B
        rng = np.random.default_rng(2)
        j2 = np.block([
            [np.zeros((2, 2)), -np.eye(2)],
            [np.eye(2), np.zeros((2, 2))],
        ])
        for _ in range(20):
            x = rng.uniform(-5, 5)
            lam = rng.uniform(-1, 4)
            m = system_matrix(DEMO, x, lam)
            assert np.max(np.abs(m.T @ j2 + j2 @ m)) == 0.0


class TestAsymptoticSplitting:
    def test_sech_lambda_zero(self):
        unstable, stable, rates = asymptotic_splitting(SECH, 0.0)
        assert_allclose(rates, [1.0])
        assert_allclose(unstable.ravel() / unstable[0, 0], [1.0, 1.0])

    def test_sech_lambda_three(self):
        unstable, _, rates = asymptotic_splitting(SECH, 3.0)
        assert_allclose(rates, [2.0])
        ratio = unstable[1, 0] / unstable[0, 0]
        assert_allclose(ratio, 2.0)

    def test_coupled_rates(self):
        _, _, rates = asymptotic_splitting(DEMO, 0.0)
        assert_allclose(np.sort(rates), [1.0, np.sqrt(2.0)])

    def test_frames_lagrangian(self):
        for lam in (0.0, 1.0, 2.5):
            unstable, stable, _ = asymptotic_splitting(DEMO, lam)
            assert symplectic.check_lagrangian(unstable).passed
            assert symplectic.check_lagrangian(stable).passed

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            asymptotic_splitting(SECH, -1.5)


class TestPropagate:
    @pytest.mark.parametrize("model, lams", [
        (SECH, np.linspace(0.2, 2.8, 7)),
        (SECH, 1.25 + 0.8 * np.exp(2j * np.pi * (np.arange(7) + 0.25) / 7)),
        (DEMO, np.linspace(0.2, 2.8, 7)),
        (DEMO, 1.25 + 0.8 * np.exp(2j * np.pi * (np.arange(7) + 0.25) / 7)),
    ])
    def test_batch_matches_single_runs(self, model, lams):
        # solve_ivp's error norm is an RMS over the whole state, so a batch
        # could hide one lambda's error; each member must match its own run
        opts = FlowOptions().resolve(model)
        L = opts.truncation
        xs = [-L, 0.0, L]
        init, _, _ = flow._asymptotic_frames(model, lams, "minus")
        batch = flow.propagate(model, lams, init, xs, opts)
        assert batch.shape == (3,) + init.shape
        for k in range(len(lams)):
            single = flow.propagate(model, lams[k:k + 1], init[k:k + 1], xs, opts)
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


class TestEvolve:
    def test_constant_model_invariant_frame(self):
        model = constant_model([[-1.0]])
        _, frames = evolve_unstable_frame(model, 0.5, FlowOptions(truncation=12.0))
        ref, _, _ = asymptotic_splitting(model, 0.5)
        dists = [reference.plane_distance(f, ref) for f in frames]
        assert max(dists) < 1e-6

    def test_sech_above_top_eigenvalue_never_vanishes(self):
        _, frames = evolve_unstable_frame(SECH, 2.0)
        dets = np.linalg.det(frames[:, :1])
        assert np.min(np.abs(dets)) > 1e-4

    def test_sech_near_zero_vanishes_once(self):
        _, frames = evolve_unstable_frame(SECH, 1e-3)
        dets = np.linalg.det(frames[:, :1])
        signs = np.sign(dets)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes == 1

    def test_lagrangian_residual_small(self):
        for model, lam in ((SECH, 1e-3), (DEMO, 0.5), (FRONT, 1.0)):
            _, frames = evolve_unstable_frame(model, lam)
            drift = np.max(symplectic.check_lagrangian(frames).asymmetry)
            assert drift < symplectic.LAGR_TOL

    def test_truncation_adequacy_enforced(self):
        with pytest.raises(OptionsError):
            evolve_unstable_frame(SECH, 1.0, FlowOptions(truncation=3.0))


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
        assert_allclose(lambda_max_bound(SECH), 3.0, atol=1e-6)
        assert_allclose(lambda_max_bound(FRONT), 2.0, atol=1e-6)
        assert_allclose(lambda_max_bound(DEMO), 3.0, atol=1e-6)

    @pytest.mark.parametrize("model", [SECH, FRONT, DEMO, from_config(COUPLED_2X2)],
                             ids=["sech", "front", "demo", "coupled-2x2"])
    def test_equals_the_per_sample_loop(self, model):
        L = FlowOptions().resolve(model).truncation
        top = -np.inf
        for x in np.linspace(-L, L, 4001):
            q = model.q(x)
            top = max(top, float(q[0, 0] if model.n == 1 else np.linalg.eigvalsh(q)[-1]))
        got = np.float64(lambda_max_bound(model))
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

    def test_square_checks_the_bottom_edge_in_one_call(self, monkeypatch):
        shapes = []
        intersection = symplectic.dirichlet_intersection_dim

        def recording(frames, *args, **kwargs):
            shapes.append(np.shape(frames))
            return intersection(frames, *args, **kwargs)

        monkeypatch.setattr(symplectic, "dirichlet_intersection_dim", recording)
        model = constant_model(np.diag([-1.0, -2.0]))
        rep = maslov_square(model, 1e-3, FlowOptions(truncation=12.0))
        assert rep.net_index == 0
        assert shapes == [(65, 4, 2)]


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

        def faked(model, lams, opts, x_match):
            return fake(lams), determinant(model, lams, opts, x_match)[1]

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
    def test_sech(self):
        rep = count_unstable_eigenvalues(SECH)
        assert rep.conjugate_count == 1

    def test_front(self):
        rep = count_unstable_eigenvalues(FRONT)
        assert rep.conjugate_count == 0

    def test_demo_matches_oracle(self):
        # the demo stacks one pulse block (eigenvalue 1.25) and one front
        # block (top eigenvalue 0, below the shift): the union count is 1
        rep = compare_counts(DEMO)
        assert rep.oracle_count == 1
        assert rep.conjugate_count == 1
        assert rep.agree

    def test_unstable_essential_spectrum_rejected(self):
        with pytest.raises(NonHyperbolicError):
            count_unstable_eigenvalues(constant_model([[0.5]]))


class TestRobustness:
    def test_truncation_doubling_preserves_counts_and_positions(self):
        base = FlowOptions(rtol=1e-10).resolve(SECH)
        doubled = FlowOptions(truncation=2 * base.truncation, rtol=1e-10)
        ev1 = detect_conjugate_points(SECH, -0.5, base)
        ev2 = detect_conjugate_points(SECH, -0.5, doubled)
        assert len(ev1) == len(ev2)
        for a, b in zip(ev1, ev2):
            assert abs(a.param - b.param) < 1e-6

    def test_scalar_consistency_with_prufer(self):
        opts = FlowOptions(rtol=1e-11)
        for model, lam in ((SECH, 1e-3), (SECH, -0.5), (FRONT, 0.5)):
            resolved = opts.resolve(model)
            L = resolved.truncation
            events = detect_conjugate_points(model, lam, resolved)
            prob = prufer.ScalarProblem(
                q=lambda x, m=model: float(m.q(x)[0, 0]), interval=(-L, L)
            )
            expected = prufer.conjugate_points(prob, lam, rtol=1e-12)
            assert len(events) == len(expected)
            for e, x_ref in zip(events, expected):
                assert abs(e.param - x_ref) < 1e-6
