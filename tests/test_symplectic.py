import numpy as np
import pytest
from numpy.testing import assert_allclose

from maslovstab.symplectic import (
    _merge_events,
    CrossingEvent,
    LagrangianFrame,
    MaslovIndexResult,
    check_lagrangian,
    dirichlet_intersection_dim,
    maslov_angle,
    path_maslov_index,
    unitary_reduction,
)
from maslovstab.errors import NonLagrangianError, UndersampledPathError


def line_frame(alpha):
    """n=1 frame for the line spanned by (cos a, sin a)."""
    return LagrangianFrame([[np.cos(alpha)]], [[np.sin(alpha)]])


def random_lagrangian(rng, n):
    """A = I, B symmetric random, then a random invertible right factor."""
    b = rng.standard_normal((n, n))
    b = 0.5 * (b + b.T)
    frame = LagrangianFrame(np.eye(n), b)
    while True:
        r = rng.standard_normal((n, n))
        if abs(np.linalg.det(r)) > 0.1:
            return frame.right_multiplied(r)


class TestCheckLagrangian:
    def test_horizontal_plane_passes(self):
        f = LagrangianFrame(np.eye(2), np.zeros((2, 2)))
        rep = check_lagrangian(f)
        assert rep.passed
        assert rep.rank_defect == 0
        assert rep.asymmetry == 0.0

    def test_antisymmetric_product_fails(self):
        f = LagrangianFrame(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        rep = check_lagrangian(f)
        assert not rep.passed
        assert_allclose(rep.asymmetry, 2.0, atol=1e-14)

    def test_zero_frame_rank_defect(self):
        f = LagrangianFrame([[0.0]], [[0.0]])
        rep = check_lagrangian(f)
        assert not rep.passed
        assert rep.rank_defect == 1


class TestUnitaryReduction:
    def test_scalar_rotation(self):
        alpha = 0.37
        red = unitary_reduction(line_frame(alpha))
        assert_allclose(red.w[0, 0], np.exp(-2j * alpha), atol=1e-14)

    def test_identity_case(self):
        red = unitary_reduction(line_frame(0.0))
        assert_allclose(red.w[0, 0], 1.0, atol=1e-14)

    def test_block_diagonal_eigenvalues(self):
        f = LagrangianFrame(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        eigs = np.sort_complex(np.linalg.eigvals(unitary_reduction(f).w))
        assert_allclose(eigs, [-1.0, 1.0], atol=1e-14)

    def test_unitarity_random(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5):
            f = random_lagrangian(rng, n)
            w = unitary_reduction(f).w
            assert_allclose(w @ w.conj().T, np.eye(n), atol=1e-10)

    def test_plane_invariance(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 4):
            f = random_lagrangian(rng, n)
            r = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
            w1 = unitary_reduction(f).w
            w2 = unitary_reduction(f.right_multiplied(r)).w
            assert np.linalg.norm(w1 - w2) < 1e-8

    def test_non_lagrangian_rejected(self):
        # span{e1, e3} in R^4 carries a nonzero symplectic pairing
        f = LagrangianFrame([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonLagrangianError):
            unitary_reduction(f)


class TestDirichletIntersection:
    def test_horizontal(self):
        assert dirichlet_intersection_dim(LagrangianFrame(np.eye(2), np.zeros((2, 2)))) == 0

    def test_full_dirichlet(self):
        assert dirichlet_intersection_dim(LagrangianFrame(np.zeros((2, 2)), np.eye(2))) == 2

    def test_one_direction(self):
        f = LagrangianFrame(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
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
        f = LagrangianFrame(np.zeros((2, 2)), np.eye(2))
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

    def test_multiplicity_two(self):
        # Two decoupled lines rotating together cross D simultaneously.
        ts = np.linspace(0.0, 0.9 * np.pi, 181)
        frames = [
            LagrangianFrame(np.diag([np.cos(t), np.cos(t)]), np.diag([np.sin(t), np.sin(t)]))
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
