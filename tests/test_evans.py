import numpy as np
import pytest

from maslovstab import flow
from maslovstab.errors import ContourError, NonHyperbolicError, SeparationError
from maslovstab.evans import Contour, compare_counts, winding_number
from maslovstab.models import builtin
from reference import constant_model, evans_matched_at, plane_distance
from zoo import random_bump_model, random_pulse_model

SECH = builtin("scalar_sech_pulse")
FRONT = builtin("allen_cahn_front")
DEMO = builtin("coupled_gradient_demo")


def evans_values(model, lams, opts=None):
    """Evans values at complex spectral points, from the batched determinant."""
    opts = (opts or flow.FlowOptions()).resolve(model)
    lams = np.asarray(lams, dtype=complex)
    return flow.evans_determinant(model, lams, opts, (-opts.truncation, 0.0))[0]


class TestEvansAt:
    def test_no_eigenvalue_above_top(self):
        (scale,) = abs(evans_values(SECH, [3.0]))
        assert scale > 0.0

    def test_vanishes_at_eigenvalue(self):
        scale, at_eig = abs(evans_values(SECH, [3.0, 1.25]))
        assert at_eig < 1e-6 * scale

    def test_constant_model_never_vanishes(self):
        model = constant_model([[-1.0]])
        opts = flow.FlowOptions(truncation=12.0)
        assert np.all(abs(evans_values(model, [0.5, 1.0, 2.0, 0.3 + 0.4j], opts)) > 1e-3)

    def test_conjugation_symmetry(self):
        lams = np.array([0.5 + 0.3j, 1.7 - 0.2j, 0.1 + 1.0j])
        v1 = evans_values(SECH, lams)
        v2 = evans_values(SECH, np.conj(lams))
        assert np.all(abs(v2 - np.conj(v1)) < 1e-7 * np.maximum(1.0, abs(v1)))

    def test_matching_point_freedom(self):
        # the zero at 1.25, matched at 0 in one run, is a zero of the two-leg
        # value matched anywhere: zeros do not move with the matching point
        scale, at_eig = abs(evans_values(SECH, [3.0, 1.25]))
        assert at_eig < 1e-5 * scale
        opts = flow.FlowOptions().resolve(SECH)
        for x_m in (-1.0, 0.0, 2.0):
            scale, at_eig = abs(evans_matched_at(SECH, [3.0, 1.25], opts, x_m))
            assert at_eig < 1e-5 * scale

    @pytest.mark.parametrize("lam", [0.5, 1.5 + 0.8j])
    def test_reflected_half_is_the_backward_sweep_from_plus_l(self, lam):
        opts = flow.FlowOptions().resolve(DEMO)
        L = opts.truncation
        lams = np.array([lam])
        unstable, _, _ = flow._asymptotic_frames(DEMO, lams, "minus")
        reflected, stable, _ = flow._asymptotic_frames(DEMO, lams, "plus")
        both = flow.propagate(DEMO, np.concatenate([lams, lams]),
                              np.concatenate([unstable, reflected]), [-L, 0.0], opts,
                              mirrored=1)[-1]
        forward = flow.propagate(DEMO, lams, unstable, [-L, 0.0], opts)[-1, 0]
        backward = flow.propagate(DEMO, lams, stable, [L, 0.0], opts)[-1, 0]
        # (X(-t); -Y(-t)) solves the system with Q(-t): negate Y at t = 0
        assert plane_distance(both[1] * np.array([[1.0], [1.0], [-1.0], [-1.0]]),
                              backward) <= 1e-8
        assert plane_distance(both[0], forward) <= 1e-8

    def test_forward_frames_at_the_renormalization_points(self):
        opts = flow.FlowOptions().resolve(DEMO)
        L = opts.truncation
        lams = np.array([0.5, 3.0])
        grid = flow._unit_grid(-L, 0.0)
        values, frames = flow.evans_determinant(DEMO, lams, opts, grid)
        assert frames.shape == (int(np.ceil(L)) + 1, 2, 4, 2)
        # the same segments as an endpoint-only sweep, bit for bit
        ends, last = flow.evans_determinant(DEMO, lams, opts, (-L, 0.0))
        assert last.shape == (2, 2, 4, 2)
        assert np.array_equal(frames[-1], last[-1]) and np.array_equal(values, ends)

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            evans_values(SECH, [-1.5])


class TestWinding:
    def test_single_eigenvalue(self):
        assert winding_number(SECH, Contour(center=1.25, radius=0.5)) == 1

    def test_two_eigenvalues(self):
        assert winding_number(SECH, Contour(center=0.625, radius=0.8)) == 2

    def test_empty_region(self):
        assert winding_number(SECH, Contour(center=3.0, radius=0.2)) == 0

    def test_additivity_of_subcontours(self):
        whole = winding_number(SECH, Contour(center=0.625, radius=0.8))
        parts = winding_number(SECH, Contour(center=0.0, radius=0.3)) + \
            winding_number(SECH, Contour(center=1.25, radius=0.3))
        assert whole == parts == 2

    def test_contour_touching_essential_spectrum_rejected(self):
        with pytest.raises(ContourError):
            winding_number(SECH, Contour(center=-0.8, radius=0.5))

    def test_refinement_rounds_bounded(self):
        # winding_number raises PhaseStepError when 3 rounds do not suffice
        assert flow.MAX_REFINE == 3
        L = flow.FlowOptions().resolve(SECH).truncation
        contour = Contour.enclosing(1e-3, flow.lambda_max_bound(SECH, L))
        assert winding_number(SECH, contour) == 1


class TestContourValidation:
    @pytest.mark.parametrize("center, radius", [
        (-1.0262 + 0.0391j, 0.7158), (-0.9413 + 0.6258j, 1.2427),
    ])
    def test_arc_crossing_between_samples_rejected(self, center, radius):
        # every sample and t = 1/2 clear (-inf, -1]; the arc between two
        # samples crosses it
        contour = Contour(center=center, radius=radius)
        pts = contour.point(np.append(np.arange(contour.samples) / contour.samples, 0.5))
        assert np.all((pts.real > -1.0) | (np.abs(pts.imag) > flow.CONTOUR_MARGIN))
        with pytest.raises(ContourError, match="negative gap crosses it"):
            flow.validate_contour(SECH, contour)

    def test_closed_form_agrees_with_dense_sampling(self):
        rng = np.random.default_rng(1910)
        max_eig = -1.0
        t = np.arange(100_000) / 100_000
        for _ in range(300):
            center = complex(rng.uniform(-4.0, 2.0), rng.uniform(-2.0, 2.0))
            radius = float(rng.uniform(1e-3, 3.0))
            # the verdict must not depend on how finely the winding samples
            contour = Contour(center=center, radius=radius,
                              samples=int(rng.integers(8, 257)))
            pts = contour.point(t)
            dist = np.where(pts.real > max_eig, np.abs(pts - max_eig), np.abs(pts.imag))
            # a chord with both ends left of max_eig whose ends straddle the
            # real axis crosses the half-line
            im = np.append(pts.imag, pts.imag[0])
            left = np.maximum(pts.real, np.roll(pts.real, -1)) <= max_eig
            meets = np.any(left & (im[:-1] * im[1:] <= 0))
            # the distance to the half-line is 1-Lipschitz, so the circle's
            # least distance lies within half a sample spacing below the
            # sampled one
            spacing = 2.0 * np.pi * radius / len(t)
            try:
                flow.validate_contour(SECH, contour)
                accepted = True
            except ContourError:
                accepted = False
            if meets or np.min(dist) <= flow.CONTOUR_MARGIN:
                assert not accepted, (center, radius)
            elif np.min(dist) - spacing > flow.CONTOUR_MARGIN:
                assert accepted, (center, radius)


class TestSymmetricContour:
    @pytest.mark.parametrize("samples", [64, 65])
    @pytest.mark.parametrize("model", [SECH, DEMO], ids=["sech", "demo"])
    def test_mirrored_values_match_direct_integration(self, model, samples):
        opts = flow.FlowOptions().resolve(model)
        top = flow.lambda_ceiling(model, 1e-3, opts.truncation)
        contour = Contour.enclosing(1e-3, top, samples=samples)
        integrated = flow.evans_determinant(model, flow._integrated_points(contour),
                                            opts, (-opts.truncation, 0.0))[0]
        ts, values, base = flow._closed_loop(contour, integrated)
        assert np.count_nonzero(base) == samples
        assert np.array_equal(ts[base], flow._contour_params(samples)[:-1])
        # odd m: t = 1/2, the second real-axis crossing, is sampled in order
        assert list(ts[~base]) == ([0.5, 1.0] if samples % 2 else [1.0])
        assert np.all(np.diff(ts) > 0)
        values = values[base]
        lower = np.arange(samples // 2 + 1, samples)
        pts = contour.point(flow._contour_params(samples)[lower])
        assert np.all(pts.imag < 0)
        direct = flow.evans_determinant(model, pts, opts, (-opts.truncation, 0.0))[0]
        scale = np.max(np.abs(values))
        assert np.max(np.abs(values[lower] - direct)) <= 1e-8 * scale

    def test_off_axis_contour_takes_the_full_path(self, monkeypatch):
        sizes = []
        determinant = flow.evans_determinant

        def counting(model, lams, opts, xs):
            sizes.append(len(lams))
            return determinant(model, lams, opts, xs)

        monkeypatch.setattr(flow, "evans_determinant", counting)
        contour = Contour(center=1.25 + 0.1j, radius=0.5)
        assert winding_number(SECH, contour) == 1
        assert sizes == [contour.samples]

    def test_degenerate_contour_is_a_contour_error(self):
        with pytest.raises(ContourError):
            Contour(center=1.0, radius=0.0)
        with pytest.raises(ContourError):
            Contour(center=1.0, radius=0.5, samples=4)


class TestCompareCounts:
    def test_sech(self):
        rep = compare_counts(SECH)
        assert (rep.conjugate_count, rep.winding_count, rep.oracle_count) == (1, 1, 1)
        assert rep.agree

    def test_front(self):
        rep = compare_counts(FRONT)
        assert (rep.conjugate_count, rep.winding_count, rep.oracle_count) == (0, 0, 0)
        assert rep.agree

    def test_demo(self):
        # pulse block contributes its eigenvalue at 1.25; the front block's
        # top eigenvalue sits at 0, below the shift: the union count is 1
        rep = compare_counts(DEMO)
        assert (rep.conjugate_count, rep.winding_count, rep.oracle_count) == (1, 1, 1)
        assert rep.agree

    def test_thread_cap_respected(self, monkeypatch):
        monkeypatch.setenv("MASLOV_STAB_THREADS", "1")
        rep = compare_counts(SECH)
        assert rep.agree

    def test_randomized_models_agree(self):
        rng = np.random.default_rng(99)
        rep = compare_counts(random_bump_model(rng))
        assert rep.agree
        model, blocks = random_pulse_model(rng)
        rep = compare_counts(model)
        assert rep.agree and rep.conjugate_count == blocks

    def test_step_dependent_oracle_count_raises(self):
        # pulse 31 of the C02 family (rng 811) reported a false DISAGREE
        # 2/2/3: at h = 0.02 the FD error of its translation eigenvalue puts
        # it above the shift 1e-3, at h = 0.01 it sits below
        rng = np.random.default_rng(811)
        for _ in range(32):
            model, blocks = random_pulse_model(rng)
        assert blocks == 2
        with pytest.raises(SeparationError,
                           match=r"counts 3 at h = 0\.02 and 2 at h = 0\.01"):
            compare_counts(model)
