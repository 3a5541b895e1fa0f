import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from reference import quadrature_grid
from maslovstab.radial import (
    DichotomyProjection,
    associated_legendre,
    cylinder_spectrum,
    evolve_mode,
    laplace_beltrami_eigenvalue,
    mode_exponents,
    radial_system_matrix,
    real_sph_harm,
    reconstruct_solution,
)


class TestSystemMatrix:
    def test_d3_l0(self):
        assert_allclose(radial_system_matrix(3, 0, 1.0), [[0, 1], [0, -2]])

    def test_d3_l2(self):
        assert_allclose(radial_system_matrix(3, 2, 1.0), [[0, 1], [6, -2]])

    def test_d3_l2_scaled(self):
        assert_allclose(radial_system_matrix(3, 2, 2.0), [[0, 1], [1.5, -1]])

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            radial_system_matrix(3, 1, 0.0)


class TestExponents:
    def test_d3_l2(self):
        assert mode_exponents(3, 2) == (2.0, -3.0)

    def test_d3_l0(self):
        assert mode_exponents(3, 0) == (0.0, -1.0)

    def test_d2_l0_double_root(self):
        assert mode_exponents(2, 0) == (0.0, 0.0)
        # both +0.0: -0.0 == 0.0, so only the sign tells them apart
        assert [math.copysign(1.0, mu) for mu in mode_exponents(2, 0)] == [1.0, 1.0]

    def test_indicial_identity(self):
        for d in (3, 4, 5):
            for l in range(11):
                for mu in mode_exponents(d, l):
                    assert mu * mu + (d - 2) * mu - l * (l + d - 2) == 0.0

    def test_spectral_gap(self):
        for d in (3, 4, 5):
            for l in range(1, 11):
                unstable, stable = mode_exponents(d, l)
                assert unstable - stable == 2 * l + d - 2
        assert mode_exponents(3, 0)[0] == 0.0  # non-decaying, not unstable

    def test_root_product_is_laplace_beltrami_eigenvalue(self):
        for d in (3, 4, 5):
            for l in range(11):
                unstable, stable = mode_exponents(d, l)
                assert unstable * stable == laplace_beltrami_eigenvalue(d, l)

    def test_l0_flagged_non_decaying(self):
        assert DichotomyProjection.for_mode(3, 0).non_decaying
        assert not DichotomyProjection.for_mode(3, 1).non_decaying


class TestEvolveMode:
    def test_unstable_direction_rate(self):
        proj = DichotomyProjection.for_mode(3, 2)
        traj = evolve_mode(3, 2, proj.unstable_direction)
        assert traj.initialization == "unstable"
        assert abs(traj.fitted_rate - 2.0) < 1e-3

    def test_stable_direction_rate(self):
        proj = DichotomyProjection.for_mode(3, 2)
        traj = evolve_mode(3, 2, proj.stable_direction)
        assert traj.initialization == "stable"
        assert abs(traj.fitted_rate - (-3.0)) < 1e-3

    def test_mixed_init_fits_unstable(self):
        traj = evolve_mode(3, 1, np.array([0.7, -0.4]))
        assert traj.initialization == "mixed"
        assert abs(traj.fitted_rate - 1.0) < 1e-3

    def test_d2_rejected(self):
        with pytest.raises(ValueError):
            evolve_mode(2, 1, np.array([1.0, 0.0]))


class TestCylinderSpectrum:
    def test_k2(self):
        assert_allclose(cylinder_spectrum(2), [-2, -1, 0, 1, 2])

    def test_k0(self):
        assert_allclose(cylinder_spectrum(0), [0])

    def test_k5(self):
        spec = cylinder_spectrum(5)
        assert len(spec) == 11
        assert_allclose(spec, np.arange(-5, 6))


class TestSphericalHarmonics:
    def test_legendre_values(self):
        x = np.array([-0.7, 0.0, 0.3, 0.9])
        assert_allclose(associated_legendre(0, 0, x), np.ones(4))
        assert_allclose(associated_legendre(1, 0, x), x)
        assert_allclose(associated_legendre(2, 0, x), 0.5 * (3 * x**2 - 1))
        assert_allclose(associated_legendre(1, 1, x), -np.sqrt(1 - x**2))

    def test_orthonormality_up_to_lmax(self):
        theta, phi, w = quadrature_grid()
        basis = []
        for l in range(9):
            for m in range(-l, l + 1):
                basis.append(real_sph_harm(l, m, theta, phi))
        basis = np.array(basis)
        gram = (basis * w) @ basis.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-6

    def test_l_beyond_table_rejected(self):
        with pytest.raises(ValueError):
            real_sph_harm(9, 0, 0.3, 0.1)
        with pytest.raises(ValueError):
            reconstruct_solution({(9, 0): (1.0, 0.0)}, 1.0, 0.3, 0.1)


def fd_laplacian_residual(coeffs, r0, theta0, phi0, h=1e-3):
    """Second-order FD Laplacian in spherical coordinates at one point."""
    def u(r, th, ph):
        return reconstruct_solution(coeffs, r, th, ph)

    u0 = u(r0, theta0, phi0)
    u_rr = (u(r0 + h, theta0, phi0) - 2 * u0 + u(r0 - h, theta0, phi0)) / h**2
    u_r = (u(r0 + h, theta0, phi0) - u(r0 - h, theta0, phi0)) / (2 * h)
    u_tt = (u(r0, theta0 + h, phi0) - 2 * u0 + u(r0, theta0 - h, phi0)) / h**2
    u_t = (u(r0, theta0 + h, phi0) - u(r0, theta0 - h, phi0)) / (2 * h)
    u_pp = (u(r0, theta0, phi0 + h) - 2 * u0 + u(r0, theta0, phi0 - h)) / h**2
    lap = (
        u_rr + 2.0 / r0 * u_r
        + (u_tt + np.cos(theta0) / np.sin(theta0) * u_t) / r0**2
        + u_pp / (r0**2 * np.sin(theta0) ** 2)
    )
    scale = (
        abs(u_rr) + abs(2.0 / r0 * u_r) + abs(u_tt / r0**2) + 1e-30
    )
    return abs(lap) / scale


class TestReconstruction:
    POINTS = [(1.1, 0.4), (2.0, 2.2), (0.9, 4.0)]

    def test_constant_harmonic(self):
        coeffs = {(0, 0): (1.0, 0.0)}
        vals = [
            reconstruct_solution(coeffs, r, th, ph)
            for r in (0.5, 1.0, 2.0)
            for th, ph in self.POINTS
        ]
        assert_allclose(vals, vals[0] * np.ones(len(vals)), rtol=1e-14)
        for th, ph in self.POINTS:
            assert fd_laplacian_residual(coeffs, 1.5, th, ph) < 1e-6

    def test_linear_harmonic_is_z(self):
        coeffs = {(1, 0): (1.0, 0.0)}
        norm = np.sqrt(3.0 / (4.0 * np.pi))
        for r in (0.5, 2.0):
            for th, ph in self.POINTS:
                got = reconstruct_solution(coeffs, r, th, ph)
                assert_allclose(got, norm * r * np.cos(th), rtol=1e-12)
        for th, ph in self.POINTS:
            assert fd_laplacian_residual(coeffs, 2.0, th, ph) < 1e-6

    def test_decaying_quadrupole_residual(self):
        coeffs = {(2, 0): (0.0, 1.0)}
        for th, ph in self.POINTS:
            assert fd_laplacian_residual(coeffs, 2.0, th, ph) < 1e-4

    def test_mixed_field_residual(self):
        coeffs = {(0, 0): (0.3, 0.1), (1, 1): (0.5, 0.0), (2, -1): (0.0, 0.7),
                  (3, 2): (0.2, 0.1)}
        for th, ph in self.POINTS:
            assert fd_laplacian_residual(coeffs, 1.7, th, ph) < 1e-4
