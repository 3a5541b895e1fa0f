import numpy as np
import pytest
from numpy.testing import assert_allclose

from reference import check_lagrangian
from maslovstab import flow, symplectic
from maslovstab.flow import FlowOptions
from maslovstab.models import builtin
from maslovstab.symplectic import (
    _merge_events,
    CrossingEvent,
    MaslovIndexResult,
    eigenphases_from_minus_one,
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

    @pytest.mark.parametrize("eps, accepted", [(4e-8, True), (6e-8, False)])
    def test_unitarity_limit_is_the_drift_limit(self, eps, accepted):
        # (I; eps K) with K antisymmetric has orthogonal columns, and its
        # orthonormal frame carries the residual 2 eps / (1 + eps^2), in the
        # spectral norm that check_lagrangian reports
        k = np.array([[0.0, 1.0], [-1.0, 0.0]])
        f = np.vstack([np.eye(2), eps * k]) / np.sqrt(1.0 + eps**2)
        assert_allclose(check_lagrangian(f).asymmetry, 2 * eps / (1 + eps**2), rtol=1e-6)
        assert (check_lagrangian(f).asymmetry <= symplectic.DRIFT_TOL) == accepted
        if accepted:
            unitary_reduction(f)
        else:
            with pytest.raises(NonLagrangianError, match="exceeds 1.0e-07"):
                unitary_reduction(f)


def dirichlet_dim(frames):
    """Dimension of each frame's intersection with the Dirichlet plane
    {(0, v)}: the W-eigenvalues within DIRICHLET_TOL of -1."""
    betas = eigenphases_from_minus_one(unitary_reduction(frames))
    return np.sum(np.abs(betas) <= symplectic.DIRICHLET_TOL, axis=-1)


class TestDirichletIntersection:
    def test_horizontal(self):
        assert dirichlet_dim(np.vstack([np.eye(2), np.zeros((2, 2))])) == 0

    def test_full_dirichlet(self):
        assert dirichlet_dim(np.vstack([np.zeros((2, 2)), np.eye(2)])) == 2

    def test_one_direction(self):
        f = np.vstack([np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
        assert dirichlet_dim(f) == 1

    def test_agreement_on_random_frames(self):
        # sigma(W + I) = 2 sigma(A) on the orthonormal frame, so the a-block's
        # rank defect counts the same intersection
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            f = random_lagrangian(rng, n)
            d = dirichlet_dim(f)
            sing = np.linalg.svd(symplectic.qr_positive(f)[:n], compute_uv=False)
            assert d == np.sum(sing <= symplectic.DIRICHLET_TOL / 2.0)
            assert 0 <= d <= n


def det_w_angle(frame):
    """Angle theta in (-pi, pi] with e^{i theta} = det W."""
    return np.angle(np.linalg.det(unitary_reduction(frame)))


class TestMaslovAngle:
    def test_quarter_rotation(self):
        # 3 pi / 2 modulo 2 pi
        assert_allclose(det_w_angle(line_frame(np.pi / 4)), -np.pi / 2, atol=1e-12)

    def test_zero(self):
        assert det_w_angle(line_frame(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_dirichlet_plane_n2(self):
        f = np.vstack([np.zeros((2, 2)), np.eye(2)])
        assert det_w_angle(f) == pytest.approx(0.0, abs=1e-12)


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


class TestPhasePairing:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_decoupled_lines_overtaking_each_other(self, n):
        # n lines at random speeds: their phases pass one another, so the
        # sorted order changes between steps; line j at angle a crosses D
        # where a = pi/2 mod pi, clockwise (-1) while a increases
        rng = np.random.default_rng(n)
        start = rng.uniform(-np.pi, np.pi, n)
        speed = rng.uniform(-3.0, 3.0, n)
        ts = np.linspace(0.0, 4.0, 801)
        angles = start + speed * ts[:, None]
        frames = np.zeros((len(ts), 2 * n, n))
        frames[:, np.arange(n), np.arange(n)] = np.cos(angles)
        frames[:, n + np.arange(n), np.arange(n)] = np.sin(angles)
        want = []
        for a0, w in zip(start, speed):
            ks = np.arange(np.ceil((min(a0, a0 + 4 * w) - np.pi / 2) / np.pi),
                           np.floor((max(a0, a0 + 4 * w) - np.pi / 2) / np.pi) + 1)
            want += [((np.pi / 2 + k * np.pi - a0) / w, -int(np.sign(w))) for k in ks]
        want.sort()
        res = path_maslov_index(frames, ts)
        assert res.index == sum(d for _, d in want)
        assert [e.direction for e in res.events] == [d for _, d in want]
        # two phases that pass each other and zero inside one step are
        # paired without crossing, which moves those events within the step
        assert_allclose([e.param for e in res.events], [t for t, _ in want],
                        atol=ts[1] - ts[0])


class TestBatchedPhases:
    @pytest.mark.parametrize("name", ["scalar_sech_pulse", "coupled_gradient_demo"])
    def test_equal_the_per_frame_reduction(self, name, monkeypatch):
        model = builtin(name)
        xs, frames = flow._unstable_path(model, 1e-3, FlowOptions().resolve(model))
        seen = []
        phases = symplectic.eigenphases_from_minus_one

        def recording(w):
            # the phases as computed, before the pairing sorts them
            seen.append(phases(w).copy())
            return seen[-1].copy()

        monkeypatch.setattr(symplectic, "eigenphases_from_minus_one", recording)
        path_maslov_index(frames, xs)
        want = np.array([eigenphases_from_minus_one(unitary_reduction(f)) for f in frames])
        assert len(seen) == 1
        assert np.array_equal(seen[0].view(np.int64), want.view(np.int64))

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
        dims = dirichlet_dim(frames)
        ws = unitary_reduction(frames)
        for k, f in enumerate(frames):
            single = check_lagrangian(f)
            assert checks.rank_defect[k] == single.rank_defect
            assert checks.asymmetry[k] == single.asymmetry
            assert checks.passed[k] == single.passed
            assert dims[k] == dirichlet_dim(f)
            assert np.array_equal(ws[k], unitary_reduction(f))
        assert list(dims[[4, 7]]) == [3, 1]

    def test_leading_axes_are_kept(self):
        frames = np.array([[line_frame(a), line_frame(a + 0.1)] for a in (0.2, 0.9, 1.6)])
        assert unitary_reduction(frames).shape == (3, 2, 1, 1)
        assert check_lagrangian(frames).asymmetry.shape == (3, 2)

    def test_single_frame_gives_python_scalars(self):
        f = line_frame(0.4)
        rep = check_lagrangian(f)
        assert type(rep.rank_defect) is int and type(rep.passed) is bool
        assert unitary_reduction(f).shape == (1, 1)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 2), (4,), (0, 0), (5, 4, 3)])
    def test_frame_that_is_not_2n_by_n_rejected(self, shape):
        with pytest.raises(ValueError, match="2n x n"):
            unitary_reduction(np.ones(shape))


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
