import numpy as np
import pytest

from maslovstab import flow
from maslovstab.errors import ContourError, NonHyperbolicError
from maslovstab.evans import Contour, compare_counts, evans_at, winding_number
from maslovstab.models import builtin, constant_model

SECH = builtin("scalar_sech_pulse")
FRONT = builtin("allen_cahn_front")
DEMO = builtin("coupled_gradient_demo")


class TestEvansAt:
    def test_no_eigenvalue_above_top(self):
        scale = abs(evans_at(SECH, 3.0).value)
        assert scale > 0.0

    def test_vanishes_at_eigenvalue(self):
        scale = abs(evans_at(SECH, 3.0).value)
        at_eig = abs(evans_at(SECH, 1.25).value)
        assert at_eig < 1e-6 * scale

    def test_constant_model_never_vanishes(self):
        model = constant_model([[-1.0]])
        opts = flow.FlowOptions(truncation=12.0)
        for lam in (0.5, 1.0, 2.0, 0.3 + 0.4j):
            assert abs(evans_at(model, lam, opts).value) > 1e-3

    def test_conjugation_symmetry(self):
        for lam in (0.5 + 0.3j, 1.7 - 0.2j, 0.1 + 1.0j):
            v1 = evans_at(SECH, lam).value
            v2 = evans_at(SECH, np.conj(lam)).value
            assert abs(v2 - np.conj(v1)) < 1e-7 * max(1.0, abs(v1))

    def test_matching_point_freedom(self):
        # zeros do not move with the matching point
        for x0 in (-1.0, 0.0, 2.0):
            scale = abs(evans_at(SECH, 3.0, x_match=x0).value)
            at_eig = abs(evans_at(SECH, 1.25, x_match=x0).value)
            assert at_eig < 1e-5 * scale

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            evans_at(SECH, -1.5)


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
        contour = Contour.enclosing(1e-3, flow.lambda_max_bound(SECH))
        assert winding_number(SECH, contour) == 1


class TestSymmetricContour:
    @pytest.mark.parametrize("samples", [64, 65])
    @pytest.mark.parametrize("model", [SECH, DEMO], ids=["sech", "demo"])
    def test_mirrored_values_match_direct_integration(self, model, samples):
        opts = flow.FlowOptions().resolve(model)
        top = flow.lambda_ceiling(model, 1e-3, opts.truncation)
        contour = Contour.enclosing(1e-3, top, samples=samples)
        values = flow._mirrored(
            flow._evans_values(model, flow._integrated_points(contour), opts), contour)
        assert len(values) == samples
        lower = np.arange(samples // 2 + 1, samples)
        pts = contour.point(flow._contour_params(samples)[lower])
        assert np.all(pts.imag < 0)
        direct = flow._evans_values(model, pts, opts)
        scale = np.max(np.abs(values))
        assert np.max(np.abs(values[lower] - direct)) <= 1e-8 * scale

    def test_off_axis_contour_takes_the_full_path(self, monkeypatch):
        sizes = []
        determinant = flow.evans_determinant

        def counting(model, lams, opts, x_match):
            sizes.append(len(lams))
            return determinant(model, lams, opts, x_match)

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
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent))
        from zoo import random_bump_model, random_pulse_model

        rng = np.random.default_rng(99)
        rep = compare_counts(random_bump_model(rng))
        assert rep.agree
        model, blocks = random_pulse_model(rng)
        rep = compare_counts(model)
        assert rep.agree and rep.conjugate_count == blocks
