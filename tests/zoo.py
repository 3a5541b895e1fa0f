"""Randomized model families for the property and acceptance suites.

Pulse family: the closed-form integrable pulses phi = A sech^2(beta (x-x0))
solve phi'' - 4 beta^2 phi + (6 beta^2 / A) phi^2 = 0, so their
linearization potential is Q = -4 beta^2 + 12 beta^2 sech^2(beta (x-x0))
with spectrum {5 beta^2, 0, -3 beta^2, ...}: every member has exactly one
unstable eigenvalue, and block-diagonal stacks give vector pulses with one
unstable eigenvalue per block.

Bump family: Q(x) = Q_inf + S w(x/R) with Q_inf negative definite, S a
random symmetric matrix and w a smooth compactly supported window.  These
are generic potentials (not wave linearizations) for exercising the square
identity against the finite-difference oracle.
"""

import numpy as np

from maslovstab.models import WaveModel


def sech_family_potential(beta, x0):
    def q(x):
        c = 1.0 / np.cosh(beta * (x - x0))
        return np.array([[-4.0 * beta**2 + 12.0 * beta**2 * c * c]])

    return q


def random_pulse_model(rng):
    """Scalar or two-block pulse with known instability count (>= 1)."""
    blocks = 1 if rng.random() < 0.75 else 2
    betas = rng.uniform(0.6, 1.3, size=blocks)
    x0s = rng.uniform(-2.0, 2.0, size=blocks)
    pots = [sech_family_potential(b, x0) for b, x0 in zip(betas, x0s)]
    amps = 6.0 * betas**2

    def potential(x):
        return np.diag([p(x)[0, 0] for p in pots])

    def profile(x):
        return np.array([
            a / np.cosh(b * (x - x0)) ** 2
            for a, b, x0 in zip(amps, betas, x0s)
        ])

    def profile_derivative(x):
        return np.array([
            -2.0 * a * b * np.tanh(b * (x - x0)) / np.cosh(b * (x - x0)) ** 2
            for a, b, x0 in zip(amps, betas, x0s)
        ])

    q_inf = np.diag(-4.0 * betas**2)
    model = WaveModel(
        n=blocks,
        potential=potential,
        q_minus=q_inf,
        q_plus=q_inf,
        decay_rate=float(2.0 * betas.min()),
        kind="pulse",
        profile=profile,
        profile_derivative=profile_derivative,
        name=f"random_pulse_{blocks}block",
    )
    return model, blocks  # unstable count equals the block count


def smooth_window(radius):
    """C-infinity bump supported on [-radius, radius]."""

    def w(x):
        u = x / radius
        if abs(u) >= 1.0:
            return 0.0
        return np.exp(1.0 - 1.0 / (1.0 - u * u))

    return w


def random_bump_model(rng):
    """Negative-definite background plus a compactly supported bump."""
    n = 1 if rng.random() < 0.6 else 2
    depths = rng.uniform(0.6, 2.5, size=n)
    if n == 1:
        q_inf = np.array([[-depths[0]]])
        basis = np.eye(1)
    else:
        angle = rng.uniform(0.0, np.pi)
        basis = np.array([
            [np.cos(angle), -np.sin(angle)],
            [np.sin(angle), np.cos(angle)],
        ])
        q_inf = basis @ np.diag(-depths) @ basis.T
    radius = rng.uniform(3.0, 6.0)
    amp = rng.uniform(0.8, 4.0)
    s = rng.standard_normal((n, n))
    s = 0.5 * (s + s.T)
    s *= amp / max(np.abs(np.linalg.eigvalsh(s)).max(), 1e-9)
    w = smooth_window(radius)

    def potential(x, q0=q_inf, sm=s, win=w):
        return q0 + sm * win(x)

    return WaveModel(
        n=n,
        potential=potential,
        q_minus=q_inf,
        q_plus=q_inf,
        decay_rate=2.0,   # the bump vanishes identically outside its support
        kind="custom",
        name=f"random_bump_n{n}",
    )


def coupled_bump3(shift=0.0):
    """n = 3 bump on a negative-definite background, coupled in every entry,
    centred at ``shift`` (off 0 it is not even in x)."""
    q_inf = -np.diag([0.8, 1.3, 2.1])
    s = np.array([[1.5, 0.7, -0.4], [0.7, -0.5, 0.9], [-0.4, 0.9, 1.1]])
    window = smooth_window(4.0)
    return WaveModel(n=3, potential=lambda x: q_inf + s * window(x - shift),
                     q_minus=q_inf, q_plus=q_inf, decay_rate=2.0)
