import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh

import zoo
from reference import charpoly_bisection_eigenvalues, dense_matrix
from maslovstab import oracle
from maslovstab.cli import main
from maslovstab.errors import (
    DiscretizationError,
    ModelValidationError,
    NonHyperbolicError,
    SeparationError,
)
from maslovstab.flow import FlowOptions
from maslovstab.models import builtin, check_essential_stability


class TestDiscretize:
    def test_discrete_sine_spectrum(self):
        disc = oracle.discretize_interval(lambda x: 0.0, 0.0, np.pi, 0.005)
        top = oracle.eigenvalues(disc, k=3)
        assert_allclose(top, [-1.0, -4.0, -9.0], atol=1e-3)

    def test_poschl_teller_top_three(self):
        disc = oracle.discretize(builtin("scalar_sech_pulse"), 40.0, 0.01)
        top = oracle.eigenvalues(disc, k=3)
        assert_allclose(top, [1.25, 0.0, -0.75], atol=1e-3)

    def test_coupled_spectrum_is_union(self):
        disc = oracle.discretize(builtin("coupled_gradient_demo"), 40.0, 0.02)
        top = oracle.eigenvalues(disc, k=4)
        d1 = oracle.discretize(builtin("scalar_sech_pulse"), 40.0, 0.02)
        d2 = oracle.discretize(builtin("allen_cahn_front"), 40.0, 0.02)
        union = np.sort(
            np.concatenate([oracle.eigenvalues(d1, k=4), oracle.eigenvalues(d2, k=4)])
        )[::-1][:4]
        assert_allclose(top, union, atol=1e-10)

    def test_step_bound_enforced(self):
        with pytest.raises(DiscretizationError):
            oracle.discretize_interval(lambda x: 0.0, 0.0, np.pi, 0.06)

    def test_memory_bound_enforced(self):
        with pytest.raises(DiscretizationError):
            oracle.discretize_interval(lambda x: 0.0, -300.0, 300.0, 0.01)

    def test_non_finite_band_names_the_first_grid_point(self):
        xs = np.pi / 63 * np.arange(1, 63)   # the grid h = 0.05 snaps to
        first = float(xs[xs > 0.5][0])
        with pytest.raises(ModelValidationError, match=re.escape(f"x = {first!r}")):
            oracle.discretize_interval(lambda x: np.nan if x > 0.5 else 0.0,
                                       0.0, np.pi, 0.05)

    def test_truncation_bound_enforced(self):
        with pytest.raises(DiscretizationError):
            oracle.discretize(builtin("scalar_sech_pulse"), 5.0, 0.01)

    def test_dense_matches_band_and_is_symmetric(self):
        disc = oracle.discretize_interval(
            lambda x: np.sin(x), 0.0, 3.0, 0.05
        )
        m = dense_matrix(disc)
        assert np.array_equal(m, m.T)
        vals_band = oracle.eigenvalues(disc)
        vals_dense = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert_allclose(vals_band, vals_dense, atol=1e-10)


class TestCounts:
    @pytest.mark.parametrize(
        "name,lambda_star,expected",
        [
            ("scalar_sech_pulse", 1e-3, 1),
            ("scalar_sech_pulse", -0.5, 2),
            ("allen_cahn_front", 1e-3, 0),
        ],
    )
    def test_builtin_counts(self, name, lambda_star, expected):
        count = oracle.oracle_count_above(builtin(name), 40.0, 0.02, lambda_star)
        assert count == expected

    def test_separation_violation(self):
        # -0.75 is an exact eigenvalue of the sech pulse
        with pytest.raises(SeparationError):
            oracle.oracle_count_above(builtin("scalar_sech_pulse"), 40.0, 0.02, -0.75)


def _small_cases():
    """(model, L) pairs whose h = 0.05 matrices the dense reference can take."""
    rng = np.random.default_rng(1)  # draws bumps with n = 1, 1, 2
    bumps = [(zoo.random_bump_model(rng), 8.0) for _ in range(3)]
    assert [m.n for m, _ in bumps] == [1, 1, 2]
    return [(builtin("scalar_sech_pulse"), 15.0),
            (builtin("allen_cahn_front"), 10.0)] + bumps


def _band_by_point(q_at, xs, h, n):
    """Lower band storage filled one grid point and one entry at a time."""
    npt = len(xs)
    band = np.zeros((n + 1, n * npt))
    inv_h2 = 1.0 / (h * h)
    for i, x in enumerate(xs):
        qi = np.atleast_2d(np.asarray(q_at(x), dtype=float))
        for c in range(n):
            col = i * n + c
            band[0, col] = qi[c, c] - 2.0 * inv_h2
            for d in range(1, n - c):
                band[d, col] = qi[c + d, c]
            if i < npt - 1:
                band[n, col] = inv_h2
    return band


@pytest.mark.parametrize("case", [0, 4], ids=["sech", "bump_n2"])
def test_band_equals_the_per_point_fill(case):
    model, L = _small_cases()[case]
    disc = oracle.discretize(model, L, 0.05)
    want = _band_by_point(model.q, disc.grid, disc.h, model.n)
    assert np.array_equal(disc.band.view(np.int64), want.view(np.int64))


class TestIndependentReference:
    H = 0.05

    @pytest.mark.parametrize("case", range(5), ids=[
        "sech", "front", "bump_n1_a", "bump_n1_b", "bump_n2"])
    def test_count_matches_sturm_and_full_spectrum(self, case):
        model, L = _small_cases()[case]
        disc = oracle.discretize(model, L, self.H)
        reference = charpoly_bisection_eigenvalues(dense_matrix(disc))
        full = oracle.eigenvalues(disc)
        assert_allclose(np.sort(full), reference, atol=1e-8 * np.max(np.abs(full)))
        # every gap above the essential spectrum, wide enough for the
        # separation rule, gets a lambda_star at its midpoint
        edge = check_essential_stability(model).max_eig_qinf
        levels = np.concatenate([[edge], reference[reference > edge],
                                 [reference[-1] + 1.0]])
        mids = 0.5 * (levels[:-1] + levels[1:])
        lambda_stars = mids[np.diff(levels) > 4.0 * self.H**2]
        assert len(lambda_stars) >= 2
        for lam in lambda_stars:
            count = oracle.oracle_count_above(model, L, self.H, lam)
            assert count == np.sum(reference > lam) == np.sum(full > lam)


class TestEigensolveBudget:
    """A count is an inertia count; LAPACK only names a too-close eigenvalue."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        eigvals_banded = oracle.eigvals_banded

        def counting(*args, **kwargs):
            calls.append(kwargs.get("select"))
            return eigvals_banded(*args, **kwargs)

        monkeypatch.setattr(oracle, "eigvals_banded", counting)
        return calls

    def test_counts_make_no_eigensolve(self, calls):
        for name, lam, expected in (("scalar_sech_pulse", 1e-3, 1),
                                    ("coupled_gradient_demo", -0.5, 3)):
            assert oracle.oracle_count_above(builtin(name), 40.0, 0.02, lam) == expected
        assert calls == []

    def test_separation_error_makes_one_eigensolve(self, calls):
        with pytest.raises(SeparationError) as info:
            oracle.oracle_count_above(builtin("scalar_sech_pulse"), 40.0, 0.02, -0.75)
        assert calls == ["v"]
        assert str(info.value) == (
            "eigenvalue -0.749966485 lies within 4.000e-04 of lambda_star = -0.75"
        )

    def test_singular_eliminated_block_names_the_shift(self):
        # two unknowns: the shift equal to the second diagonal entry makes
        # the one eliminated (odd) block exactly zero
        disc = oracle.discretize_interval(lambda x: 0.0, 0.0, 0.15, 0.05)
        shift = float(disc.band[0, 1])
        with pytest.raises(SeparationError, match=re.escape(repr(shift))):
            oracle._counts_above(disc, np.array([shift - 1.0, shift]))


def _agreement_models():
    rng = np.random.default_rng(3)
    pulses = [zoo.random_pulse_model(rng)[0] for _ in range(3)]
    bumps = [zoo.random_bump_model(rng) for _ in range(3)]
    return [builtin(name) for name in
            ("scalar_sech_pulse", "allen_cahn_front", "coupled_gradient_demo")
            ] + pulses + bumps + [zoo.coupled_bump3()]


@pytest.mark.parametrize("case", range(10), ids=[
    "sech", "front", "demo", "pulse_a", "pulse_b", "pulse_c",
    "bump_a", "bump_b", "bump_c", "bump_n3"])
def test_inertia_count_matches_lapack(case):
    # mid-gap shifts, and shifts 1e-6 (far below h^2, far above LAPACK's
    # error) on either side of every eigenvalue above the edge
    model = _agreement_models()[case]
    disc = oracle.discretize(model, FlowOptions().resolve(model).truncation, 0.02)
    edge = check_essential_stability(model).max_eig_qinf
    vals = oracle.eigenvalues(disc, k=12)
    top = vals[vals > edge]
    assert len(top) < len(vals)
    levels = np.concatenate([[max(vals[0], edge) + 1.0], top, [edge]])
    shifts = np.concatenate([0.5 * (levels[1:] + levels[:-1]), top - 1e-6, top + 1e-6])
    want = [int(np.sum(vals > s)) for s in shifts]
    assert oracle._counts_above(disc, shifts).tolist() == want


def test_c02_pulses_keep_their_oracle_outcomes():
    # on 24 of the 50 acceptance pulses the FD translation eigenvalue lies
    # within h^2 of lambda_star = 1e-3; pulse 31's lies above it
    rng = np.random.default_rng(811)
    refused, counts = [], {}
    for k in range(50):
        model, _ = zoo.random_pulse_model(rng)
        L = FlowOptions().resolve(model).truncation
        try:
            counts[k] = oracle.oracle_count_above(model, L, 0.02, 1e-3)
        except SeparationError as exc:
            refused.append(k)
            assert re.fullmatch(r"eigenvalue \S+ lies within \S+ of "
                                r"lambda_star = 0\.001", str(exc))
            if k == 2:
                assert str(exc).startswith("eigenvalue 0.000793538779 ")
    assert refused == [2, 3, 4, 5, 6, 11, 12, 13, 14, 16, 17, 19, 20, 24,
                       27, 28, 29, 34, 35, 43, 44, 45, 46, 49]
    assert counts[31] == 3


class TestEssentialSpectrumRule:
    CASES = [
        ("scalar_sech_pulse", -1.0),
        ("scalar_sech_pulse", -1.5),
        ("scalar_sech_pulse", -3.0),
        ("coupled_gradient_demo", -1.2),
    ]

    @pytest.mark.parametrize("name,lambda_star", CASES)
    def test_library_raises(self, name, lambda_star):
        with pytest.raises(NonHyperbolicError):
            oracle.oracle_count_above(builtin(name), 40.0, 0.02, lambda_star)

    @pytest.mark.parametrize("name,lambda_star", CASES)
    def test_cli_exit_one(self, capsys, name, lambda_star):
        code = main(["--json-errors", "oracle", "--model", name,
                     f"--lambda-star={lambda_star!r}"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "NonHyperbolicError"


class TestRichardson:
    def test_halving_h_contracts_error(self):
        model = builtin("scalar_sech_pulse")
        vals = {}
        for h in (0.08 / 2, 0.08 / 4, 0.08 / 8):
            disc = oracle.discretize(model, 30.0, h)
            vals[h] = oracle.eigenvalues(disc, k=3)
        move1 = np.abs(vals[0.02] - vals[0.04])
        move2 = np.abs(vals[0.01] - vals[0.02])
        # O(h^2): each halving divides the move by ~4; assert within 4x slack
        assert np.all(move2 <= move1)


class TestEigensolverContract:
    def test_self_check_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = rng.standard_normal((60, 60))
            m = 0.5 * (m + m.T)
            vals, vecs = eigh(m)
            norm = np.linalg.norm(m, 2)
            for j in range(60):
                res = np.linalg.norm(m @ vecs[:, j] - vals[j] * vecs[:, j])
                assert res < 1e-8 * norm

    def test_charpoly_bisection_agrees_with_lapack(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((100, 100))
        m = 0.5 * (m + m.T)
        lapack = np.sort(np.linalg.eigvalsh(m))
        sturm = charpoly_bisection_eigenvalues(m)
        norm = np.linalg.norm(m, 2)
        assert np.max(np.abs(lapack - sturm)) < 1e-8 * norm

    def test_charpoly_on_known_tridiagonal(self):
        # free Dirichlet Laplacian eigenvalues are known in closed form
        n = 40
        m = np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(
            np.ones(n - 1), -1
        )
        got = charpoly_bisection_eigenvalues(m)
        expected = np.sort(-2.0 + 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        assert_allclose(got, expected, atol=1e-10)


class TestBoundaryModeFilter:
    def test_counts_stable_under_domain_growth(self):
        model = builtin("scalar_sech_pulse")
        counts = {
            L: oracle.oracle_count_above(model, L, 0.02, 1e-3) for L in (20.0, 40.0)
        }
        assert counts[20.0] == counts[40.0] == 1
