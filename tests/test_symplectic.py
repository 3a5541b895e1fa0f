import numpy as np
import pytest
from numpy.testing import assert_allclose

from maslovstab import symplectic
from maslovstab.flow import evolve_unstable_frame
from maslovstab.models import builtin
from maslovstab.symplectic import (
    _merge_events,
    CrossingEvent,
    MaslovIndexResult,
    check_lagrangian,
    dirichlet_intersection_dim,
    eigenphases_from_minus_one,
    maslov_angle,
    path_maslov_index,
    unitary_reduction,
)
from maslovstab.errors import NonLagrangianError, UndersampledPathError


def line_frame(alpha):
    """n=1 frame for the line spanned by (cos a, sin a)."""
    return np.array([[np.cos(alpha)], [np.sin(alpha)]])


def random_lagrangian(rng, n):
    """A = I, B symmetric random, then a random invertible right factor."""
    b = rng.standard_normal((n, n))
    b = 0.5 * (b + b.T)
    frame = np.vstack([np.eye(n), b])
    while True:
        r = rng.standard_normal((n, n))
        if abs(np.linalg.det(r)) > 0.1:
            return frame @ r


class TestCheckLagrangian:
    def test_horizontal_plane_passes(self):
        f = np.vstack([np.eye(2), np.zeros((2, 2))])
        rep = check_lagrangian(f)
        assert rep.passed
        assert rep.rank_defect == 0
        assert rep.asymmetry == 0.0

    def test_antisymmetric_product_fails(self):
        f = np.vstack([np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]])
        rep = check_lagrangian(f)
        assert not rep.passed
        assert_allclose(rep.asymmetry, 2.0, atol=1e-14)

    def test_zero_frame_rank_defect(self):
        f = np.vstack([[[0.0]], [[0.0]]])
        rep = check_lagrangian(f)
        assert not rep.passed
        assert rep.rank_defect == 1


class TestUnitaryReduction:
    def test_scalar_rotation(self):
        alpha = 0.37
        w = unitary_reduction(line_frame(alpha))
        assert_allclose(w[0, 0], np.exp(-2j * alpha), atol=1e-14)

    def test_identity_case(self):
        w = unitary_reduction(line_frame(0.0))
        assert_allclose(w[0, 0], 1.0, atol=1e-14)

    def test_block_diagonal_eigenvalues(self):
        f = np.vstack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        eigs = np.sort_complex(np.linalg.eigvals(unitary_reduction(f)))
        assert_allclose(eigs, [-1.0, 1.0], atol=1e-14)

    def test_unitarity_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5):
            f = random_lagrangian(rng, n)
            w = unitary_reduction(f)
            assert_allclose(w @ w.conj().T, np.eye(n), atol=1e-10)

    def test_plane_invariance(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4):
            f = random_lagrangian(rng, n)
            r = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            w1 = unitary_reduction(f)
            w2 = unitary_reduction(f @ r)
            assert np.linalg.norm(w1 - w2) < 1e-8

    def test_non_lagrangian_rejected(self):
        # span{e1, e3} in R^4 carries a nonzero symplectic pairing
        f = np.vstack([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NonLagrangianError):
            unitary_reduction(f)


class TestDirichletIntersection:
    def test_horizontal(self):
        assert dirichlet_intersection_dim(np.vstack([np.eye(2), np.zeros((2, 2))])) == 0

    def test_full_dirichlet(self):
        assert dirichlet_intersection_dim(np.vstack([np.zeros((2, 2)), np.eye(2)])) == 2

    def test_one_direction(self):
        f = np.vstack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        assert dirichlet_intersection_dim(f) == 1

    def test_agreement_on_random_frames(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            f = random_lagrangian(rng, n)
            d = dirichlet_intersection_dim(f)
            assert 0 <= d <= n


class TestMaslovAngle:
    def test_quarter_rotation(self):
        assert_allclose(maslov_angle(line_frame(np.pi / 4)), 3 * np.pi / 2, atol=1e-12)

    def test_zero(self):
        assert maslov_angle(line_frame(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_dirichlet_plane_n2(self):
        f = np.vstack([np.zeros((2, 2)), np.eye(2)])
        assert maslov_angle(f) == pytest.approx(0.0, abs=1e-12)


def rotation_path(t_end, m=121):
    ts = np.linspace(0.0, t_end, m)
    return [line_frame(t) for t in ts], ts


class TestPathMaslovIndex:
    def test_rotating_line_single_crossing(self):
        # w = e^{-2it} passes -1 clockwise at t = pi/2: one event, direction -1
        # under the counterclockwise-positive convention.
        frames, ts = rotation_path(0.9 * np.pi)
        res = path_maslov_index(frames, ts)
        assert res.index == -1
        assert len(res.events) == 1
        assert res.events[0].direction == -1
        assert res.events[0].multiplicity == 1
        assert abs(res.events[0].param - np.pi / 2) < 0.02

    def test_constant_path(self):
        f = line_frame(0.3)
        res = path_maslov_index([f] * 20)
        assert res.index == 0
        assert res.events == ()

    def test_closed_loop_two_crossings(self):
        # e^{-2it} hits -1 twice on [0, 2pi); both passages are clockwise.
        frames, ts = rotation_path(2.0 * np.pi, m=257)
        res = path_maslov_index(frames, ts)
        assert abs(res.index) == 2
        assert res.index == -2
        assert len(res.events) == 2

    def test_concatenation(self):
        frames, ts = rotation_path(0.9 * np.pi, m=161)
        cut = 60  # away from the crossing near pi/2
        left = path_maslov_index(frames[: cut + 1], ts[: cut + 1])
        right = path_maslov_index(frames[cut:], ts[cut:])
        full = path_maslov_index(frames, ts)
        assert left.index + right.index == full.index

    def test_reversal_negates(self):
        frames, ts = rotation_path(0.9 * np.pi)
        fwd = path_maslov_index(frames, ts)
        bwd = path_maslov_index(frames[::-1], ts[::-1][::-1])  # params ascending
        assert bwd.index == -fwd.index

    def test_endpoint_convention(self):
        # Path ending exactly at the Dirichlet plane: terminal crossing counts.
        ts = np.linspace(0.0, np.pi / 2, 61)
        res = path_maslov_index([line_frame(t) for t in ts], ts)
        assert res.index == -1
        # Path starting exactly at the Dirichlet plane: departure not counted.
        ts2 = np.linspace(np.pi / 2, 0.9 * np.pi, 61)
        res2 = path_maslov_index([line_frame(t) for t in ts2], ts2)
        assert res2.index == 0

    def test_undersampled_raises(self):
        frames, ts = rotation_path(0.9 * np.pi, m=3)
        with pytest.raises(UndersampledPathError):
            path_maslov_index(frames, ts)

    def test_undersampled_message_prints_plain_floats(self):
        with pytest.raises(UndersampledPathError) as info:
            path_maslov_index([line_frame(0.0), line_frame(2.0)])
        assert str(info.value) == (
            "phase step 2.283 rad >= 1.571 on (0.0, 1.0]; refine the path sampling"
        )

    def test_multiplicity_two(self):
        # Two decoupled lines rotating together cross D simultaneously.
        ts = np.linspace(0.0, 0.9 * np.pi, 181)
        frames = [
            np.vstack([np.diag([np.cos(t), np.cos(t)]), np.diag([np.sin(t), np.sin(t)])])
            for t in ts
        ]
        res = path_maslov_index(frames, ts)
        assert res.index == -2
        assert len(res.events) == 1
        assert res.events[0].multiplicity == 2


    def test_merge_sums_multiplicities(self):
        events = [CrossingEvent(2.0, 1, 1), CrossingEvent(1.0 + 5e-8, 1, 1),
                  CrossingEvent(1.0, 2, 1), CrossingEvent(1.5, 1, -1)]
        assert _merge_events(events, 1.0, merge_tol=1e-7) == [
            CrossingEvent(1.0, 3, 1), CrossingEvent(1.5, 1, -1), CrossingEvent(2.0, 1, 1),
        ]
        assert len(_merge_events(events, 1.0, merge_tol=1e-9)) == 4


class TestBatchedPhases:
    @pytest.mark.parametrize("name", ["scalar_sech_pulse", "coupled_gradient_demo"])
    def test_equal_the_per_frame_reduction(self, name, monkeypatch):
        xs, frames = evolve_unstable_frame(builtin(name), 1e-3)
        seen = []
        match = symplectic.match_phases

        def recording(beta_old, beta_new):
            if not seen:
                seen.append(beta_old.copy())
            # beta_new arrives as computed, before the matching reorders it
            seen.append(beta_new.copy())
            return match(beta_old, beta_new)

        monkeypatch.setattr(symplectic, "match_phases", recording)
        path_maslov_index(frames, xs)
        want = np.array([eigenphases_from_minus_one(unitary_reduction(f)) for f in frames])
        assert np.array_equal(np.array(seen).view(np.int64), want.view(np.int64))

    def test_non_lagrangian_frame_names_its_parameter(self):
        params = 0.5 * np.arange(11)
        frames = [np.vstack([np.eye(2), t * np.eye(2)]) for t in params]
        frames[6] = np.vstack([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(NonLagrangianError, match=r"frame at parameter 3\.0 is not"):
            path_maslov_index(frames, params)


class TestFrameStacks:
    def test_stack_results_equal_the_per_frame_results(self):
        rng = np.random.default_rng(19)
        frames = np.array([random_lagrangian(rng, 3) for _ in range(12)])
        frames[4] = np.vstack([np.zeros((3, 3)), np.eye(3)])
        frames[7] = np.vstack([np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0])])
        checks = check_lagrangian(frames)
        dims = dirichlet_intersection_dim(frames)
        angles = maslov_angle(frames)
        ws = unitary_reduction(frames)
        for k, f in enumerate(frames):
            single = check_lagrangian(f)
            assert checks.rank_defect[k] == single.rank_defect
            assert checks.asymmetry[k] == single.asymmetry
            assert checks.passed[k] == single.passed
            assert dims[k] == dirichlet_intersection_dim(f)
            assert angles[k] == maslov_angle(f)
            assert np.array_equal(ws[k], unitary_reduction(f))
        assert list(dims[[4, 7]]) == [3, 1]

    def test_leading_axes_are_kept(self):
        frames = np.array([[line_frame(a), line_frame(a + 0.1)] for a in (0.2, 0.9, 1.6)])
        assert unitary_reduction(frames).shape == (3, 2, 1, 1)
        assert maslov_angle(frames).shape == (3, 2)
        assert check_lagrangian(frames).asymmetry.shape == (3, 2)

    def test_single_frame_gives_python_scalars(self):
        f = line_frame(0.4)
        rep = check_lagrangian(f)
        assert type(rep.rank_defect) is int and type(rep.passed) is bool
        assert type(dirichlet_intersection_dim(f)) is int
        assert type(maslov_angle(f)) is float

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (4,), (0, 0), (5, 4, 3)])
    def test_frame_that_is_not_2n_by_n_rejected(self, shape):
        with pytest.raises(ValueError, match="2n x n"):
            check_lagrangian(np.ones(shape))


class TestResultTypes:
    def test_index_event_consistency_enforced(self):
        ev = CrossingEvent(1.0, 2, -1)
        with pytest.raises(ValueError):
            MaslovIndexResult(index=1, events=(ev,))
        ok = MaslovIndexResult(index=-2, events=(ev,))
        assert ok.index == -2

    def test_crossing_event_validation(self):
        with pytest.raises(ValueError):
            CrossingEvent(0.0, 0, 1)
        with pytest.raises(ValueError):
            CrossingEvent(0.0, 1, 2)
