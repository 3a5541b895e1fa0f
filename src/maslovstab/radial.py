"""Radial spatial dynamics from shrinking spheres, mode by mode.

Shrinking a radial domain through spheres of radius s turns the Laplace
operator into the s-dependent system

    d/ds (f, g) = [[0, 1], [-s^{-2} Delta_{sphere}, -(d-1) s^{-1}]] (f, g),

which acts diagonally on spherical-harmonic modes: Delta_{sphere} is
multiplication by -l(l+d-2) on mode l.  The substitution s = e^tau together
with the momentum weight g -> s g makes each mode autonomous with constant
matrix [[0, 1], [l(l+d-2), -(d-2)]], whose eigenvalues are the indicial
roots {l, -(l+d-2)}: an exponential dichotomy for d >= 3 (the l = 0
unstable root is 0 and is flagged as a non-decaying bundle rather than
given an unexplained extra rescaling).

The same roots weight r^l and r^{-(l+d-2)} in the harmonic expansion; for
d = 3 solutions are reconstructed explicitly from spherical harmonics built
by associated-Legendre recurrences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dop853 import solve_ivp
from .errors import SolverError

HARMONIC_LMAX = 8
# distance from the stable or unstable direction that still counts as on it
INIT_TOL = 1e-8
# evolve_mode integrates tau over [0, TAU_END] at rtol = MODE_RTOL, so
# TAU_END * max(|rate|, 1) >= 10 for every rate it fits
TAU_END = 10.0
MODE_RTOL = 1e-12


def laplace_beltrami_eigenvalue(d, l):
    """Eigenvalue of the sphere Laplacian on mode l: -l(l+d-2)."""
    return -float(l * (l + d - 2))


def mode_exponents(d, l):
    """Indicial roots {l, -(l+d-2)} of mu^2 + (d-2) mu - l(l+d-2) = 0.

    Returned as (unstable, stable); a double root (d=2, l=0, the log r
    mode) returns (0.0, 0.0).
    """
    if d < 2:
        raise ValueError("need space dimension d >= 2")
    if l < 0:
        raise ValueError("mode index l must be nonnegative")
    return float(l), float(-(l + d - 2))


def radial_system_matrix(d, l, s):
    """The s-dependent mode matrix [[0, 1], [l(l+d-2)/s^2, -(d-1)/s]]."""
    if s <= 0:
        raise ValueError("sphere radius s must be positive")
    return np.array([
        [0.0, 1.0],
        [l * (l + d - 2) / s**2, -(d - 1) / s],
    ])


def mode_matrix_tau(d, l):
    """Autonomous generator after s = e^tau and the momentum weight g -> s g."""
    return np.array([
        [0.0, 1.0],
        [float(l * (l + d - 2)), -(d - 2.0)],
    ])


@dataclass(frozen=True)
class DichotomyProjection:
    """Eigen-directions and rates of the rescaled constant-coefficient mode."""

    stable_direction: np.ndarray
    unstable_direction: np.ndarray
    stable_rate: float
    unstable_rate: float
    non_decaying: bool

    @classmethod
    def for_mode(cls, d, l):
        unstable_rate, stable_rate = mode_exponents(d, l)

        def direction(mu):
            v = np.array([1.0, mu])
            return v / np.linalg.norm(v)

        return cls(
            stable_direction=direction(stable_rate),
            unstable_direction=direction(unstable_rate),
            stable_rate=stable_rate,
            unstable_rate=unstable_rate,
            non_decaying=unstable_rate == 0.0,
        )


@dataclass(frozen=True)
class ModeTrajectory:
    taus: np.ndarray
    states: np.ndarray
    fitted_rate: float
    target_rate: float
    initialization: str  # "stable" | "unstable" | "mixed"


def _classify_init(init, proj):
    v = np.asarray(init, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("zero initial state")
    v = v / norm
    for name, direction in (
        ("stable", proj.stable_direction),
        ("unstable", proj.unstable_direction),
    ):
        if min(np.linalg.norm(v - direction), np.linalg.norm(v + direction)) < INIT_TOL:
            return name
    return "mixed"


def evolve_mode(d, l, init):
    """Integrate one rescaled mode over tau in [0, TAU_END] at rtol =
    MODE_RTOL and fit the exponential rate of its norm.

    Stable-direction data is fitted on an early window, before roundoff
    excites the unstable direction; mixed data is fitted late, after the
    transient, and must recover the unstable (dominant) exponent.
    """
    if d < 3:
        raise ValueError("strict dichotomy requires d >= 3")
    proj = DichotomyProjection.for_mode(d, l)
    kind = _classify_init(init, proj)
    target = proj.stable_rate if kind == "stable" else proj.unstable_rate
    # 2l + d - 2 >= 1 for d >= 3
    gap = proj.unstable_rate - proj.stable_rate
    m = mode_matrix_tau(d, l)
    taus = np.linspace(0.0, TAU_END, 257)
    sol = solve_ivp(
        lambda t, y, _: m @ y,
        (0.0, TAU_END),
        np.asarray(init, dtype=float),
        rtol=MODE_RTOL,
        atol=1e-14,
        points=taus,
    )
    if not sol.success:
        raise SolverError(f"mode integration failed: {sol.message}")
    states = sol.ys
    if kind == "stable":
        # keep roundoff contamination of the unstable bundle below ~1e-7
        window = taus <= min(TAU_END, math.log(1e7) / gap)
    elif kind == "unstable":
        window = np.ones_like(taus, dtype=bool)
    else:
        window = taus >= min(0.6 * TAU_END, math.log(1e7) / gap)
    norms = np.linalg.norm(states, axis=0)[window]
    if len(norms) < 2 or not np.all((norms > 0.0) & np.isfinite(norms)):
        raise SolverError(
            f"cannot fit a rate: the fit window holds {len(norms)} samples, or the "
            "mode norm leaves the float range inside it"
        )
    coeffs = np.polyfit(taus[window], np.log(norms), 1)
    return ModeTrajectory(
        taus=taus,
        states=states.T,
        fitted_rate=float(coeffs[0]),
        target_rate=target,
        initialization=kind,
    )


def cylinder_spectrum(k_max):
    """Spectrum of the cylinder spatial dynamics: the integers -k_max..k_max.

    Each Fourier mode k contributes the eigenvalues of [[0, 1], [k^2, 0]],
    i.e. +-|k|; the k = 0 block is nilpotent and contributes 0.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    found = set()
    for k in range(k_max + 1):
        eigs = np.linalg.eigvals(np.array([[0.0, 1.0], [float(k * k), 0.0]]))
        found.update(int(round(e)) for e in eigs)
    return np.array(sorted(found))


# ---------------------------------------------------------------------------
# Spherical harmonics (d = 3) by associated-Legendre recurrences.

def associated_legendre(l, m, x):
    """P_l^m(x) for 0 <= m <= l by the standard upward recurrence."""
    if not 0 <= m <= l:
        raise ValueError("need 0 <= m <= l")
    x = np.asarray(x, dtype=float)
    # P_m^m = (-1)^m (2m-1)!! (1-x^2)^{m/2}
    pmm = np.ones_like(x)
    if m > 0:
        somx2 = np.sqrt((1.0 - x) * (1.0 + x))
        fact = 1.0
        for _ in range(m):
            pmm = pmm * (-fact) * somx2
            fact += 2.0
    if l == m:
        return pmm
    pmmp1 = x * (2.0 * m + 1.0) * pmm
    if l == m + 1:
        return pmmp1
    for ll in range(m + 2, l + 1):
        pll = (x * (2.0 * ll - 1.0) * pmmp1 - (ll + m - 1.0) * pmm) / (ll - m)
        pmm, pmmp1 = pmmp1, pll
    return pmmp1


def real_sph_harm(l, m, theta, phi):
    """Orthonormal real spherical harmonic Y_{lm}(theta, phi) for d = 3.

    m > 0 pairs with cos(m phi), m < 0 with sin(|m| phi); l is capped at
    the implemented table size.
    """
    if l > HARMONIC_LMAX:
        raise ValueError(f"harmonic table implemented up to l = {HARMONIC_LMAX}")
    if abs(m) > l:
        raise ValueError("need |m| <= l")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ma = abs(m)
    norm = math.sqrt(
        (2.0 * l + 1.0) / (4.0 * math.pi)
        * math.factorial(l - ma) / math.factorial(l + ma)
    )
    p = associated_legendre(l, ma, np.cos(theta))
    if m == 0:
        return norm * p
    if m > 0:
        return math.sqrt(2.0) * norm * p * np.cos(ma * phi)
    return math.sqrt(2.0) * norm * p * np.sin(ma * phi)


def reconstruct_solution(coeffs, r, theta, phi):
    """Harmonic function from per-mode coefficient pairs, sampled at radius r.

    coeffs maps (l, m) to (a, b), weighting the growing branch r^l and the
    decaying branch r^{-(l+1)} of mode l (d = 3 exponents).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(theta, phi).shape)
    for (l, m), (a, b) in coeffs.items():
        if l > HARMONIC_LMAX:
            raise ValueError(f"harmonic table implemented up to l = {HARMONIC_LMAX}")
        if b != 0.0 and r <= 0.0:
            raise ValueError("decaying branch requires r > 0")
        radial = a * r**l + (b * r ** (-(l + 1)) if b != 0.0 else 0.0)
        out = out + radial * real_sph_harm(l, m, theta, phi)
    return out
