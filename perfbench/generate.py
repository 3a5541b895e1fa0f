"""Seeded case generators for the three benchmark workloads.

Only the standard library is used here, so the set-up probe can receive the
generated specs before it starts its clock.  Every spec is plain JSON: the
program under test sees only the config documents, interval problems and
argv lists built from these specs.  Reference answers come from the
generator's own parameters (pulse width beta, block count) or, for the
compact bumps, from an independent finite-difference Sturm count written
here in plain Python.
"""

import math
import random

# Pulse family Q = -4 b^2 + 12 b^2 sech^2(b (x - x0)): exact discrete
# spectrum {5 b^2, 0, -3 b^2}, essential spectrum (-inf, -4 b^2].
TRUNCATION_ADEQUACY = 1e-8


def truncation(decay_rate):
    """Half-width L the flow layer picks for a model with this decay rate."""
    return max(math.log(1.0 / TRUNCATION_ADEQUACY) * 1.12 / decay_rate, 10.0)


# --------------------------------------------------------------------------
# builtin-cli

BUILTIN_COUNTS = {
    # unstable eigenvalues above any lambda_* in (0, 1.25)
    "scalar_sech_pulse": 1,       # spectrum {1.25, 0, -0.75}
    "allen_cahn_front": 0,        # spectrum {0, -1.5}
    "coupled_gradient_demo": 1,   # union of the two
}


def builtin_cli(seed, index):
    """Every counting subcommand on every built-in model, plus FD spectrum and radial.

    Each model gets one seeded shift lambda_* in [1e-3, 3e-2], shared by all
    of its subcommands so that winding == conjugate == oracle is checkable.
    `prufer` needs a scalar model, so it skips the n = 2 demo.  Every pass
    repeats the same cases: there are only three built-in models.
    """
    rng = random.Random(seed)
    specs = []
    for model, count in BUILTIN_COUNTS.items():
        lam = f"{10.0 ** rng.uniform(-3.0, math.log10(3e-2)):.6g}"
        base = ["--model", model]
        commands = [
            ("compare", ["compare", *base, "--epsilon-shift", lam], "json"),
            ("square", ["square", *base, "--lambda-star", lam], "csv"),
            ("evans", ["evans", *base, "--epsilon-shift", lam], "csv"),
            ("conjugate", ["conjugate", *base, "--lambda-star", lam], "csv"),
            ("oracle", ["oracle", *base, "--lambda-star", lam], "csv"),
        ]
        if model != "coupled_gradient_demo":
            commands.append(
                ("prufer", ["prufer", *base, "--lambda-star", lam], "csv")
            )
        for command, argv, fmt in commands:
            specs.append({
                "label": f"{command}:{model}",
                "model": model,
                "command": command,
                "argv": argv + ["--format", fmt],
                "artifact": f"{command}-{model}.{fmt}",
                "count": count,
            })
    specs.append({
        "label": "spectrum:coupled_gradient_demo",
        "model": "coupled_gradient_demo",
        "command": "spectrum",
        "argv": ["spectrum", "--model", "coupled_gradient_demo", "--format", "json"],
        "artifact": "spectrum-coupled_gradient_demo.json",
        # FD route (n = 2): top three of {1.25, 0, 0, -0.75, -1.5}
        "eigenvalues": [1.25, 0.0, 0.0],
    })
    specs.append({
        "label": "radial:d3l2",
        "model": None,
        "command": "radial",
        "argv": ["radial", "--d", "3", "--l", "2", "--format", "json"],
        "artifact": "radial-d3l2.json",
        # r^2 + (d - 2) r - l (l + d - 2) = 0 has roots l and -(l + d - 2)
        "exponents": [2.0, -3.0],
    })
    rng.shuffle(specs)
    return specs


# --------------------------------------------------------------------------
# config-square

def _pulse_entry(beta, x0):
    b2 = beta * beta
    return f"{-4.0 * b2!r} + {12.0 * b2!r}*sech({beta!r}*(x - {x0!r}))**2"


def _pulse_spec(rng, betas):
    blocks = len(betas)
    x0s = [rng.uniform(-1.5, 1.5) for _ in range(blocks)]
    entries = [["0"] * blocks for _ in range(blocks)]
    q_inf = [[0.0] * blocks for _ in range(blocks)]
    for i, (beta, x0) in enumerate(zip(betas, x0s)):
        entries[i][i] = _pulse_entry(beta, x0)
        q_inf[i][i] = -4.0 * beta * beta
    # between the translation eigenvalue 0 and the smallest 5 beta^2
    lam = rng.uniform(0.1, 0.6) * 5.0 * min(betas) ** 2
    doc = {
        "n": blocks,
        "kind": "pulse",
        "decay_rate": 2.0 * min(betas),
        "potential": {"kind": "expression", "entries": entries},
        "q_minus": q_inf,
        "q_plus": q_inf,
        "name": f"pulse_{blocks}block",
    }
    return {"label": f"pulse-{blocks}block", "doc": doc, "lambda_star": lam,
            "count": blocks}


def _window(x, radius):
    u = x / radius
    if abs(u) >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - u * u))


def _symmetric(rot, diag):
    """R diag R^T for a plane rotation R, mirrored so it is exactly symmetric."""
    if len(diag) == 1:
        return [[diag[0]]]
    c, s = math.cos(rot), math.sin(rot)
    r = [[c, -s], [s, c]]
    out = [[0.0, 0.0], [0.0, 0.0]]
    for i in range(2):
        for j in range(i, 2):
            out[i][j] = out[j][i] = sum(r[i][k] * diag[k] * r[j][k] for k in range(2))
    return out


def sturm_count_above(q, a, b, h, lam):
    """Eigenvalues above lam of the [1, -2, 1]/h^2 + q Dirichlet matrix on (a, b).

    Counts negative pivots of the LDL^T factorization of (lam - A); an
    independent plain-Python reference for the bump cases.
    """
    npt = int(round((b - a) / h)) - 1
    h = (b - a) / (npt + 1)
    inv_h2 = 1.0 / (h * h)
    count = 0
    pivot = 1.0
    for i in range(1, npt + 1):
        diag = lam - (q(a + i * h) - 2.0 * inv_h2)
        pivot = diag - (inv_h2 * inv_h2 / pivot if i > 1 else 0.0)
        if pivot == 0.0:
            pivot = -1e-300
        if pivot < 0.0:
            count += 1
    return count


BUMP_XS = [-12.0 + 0.25 * k for k in range(97)]
BUMP_DECAY = 2.0      # the bump vanishes identically outside its support
SEPARATION = 0.05     # min distance of lambda_* from every reference eigenvalue
FD_STEP = 0.02


def reference_eigenvalues(q, L, lo, hi, tol=1e-4):
    """FD eigenvalues of d^2/dx^2 + q on (-L, L) inside (lo, hi), descending."""
    n_lo = sturm_count_above(q, -L, L, FD_STEP, lo)
    n_hi = sturm_count_above(q, -L, L, FD_STEP, hi)
    out = []
    for k in range(n_hi + 1, n_lo + 1):
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if sturm_count_above(q, -L, L, FD_STEP, mid) >= k:
                a = mid
            else:
                b = mid
        out.append(0.5 * (a + b))
    return out


def _bump_spec(rng, n, target):
    """Scalar or 2 x 2 sampled bump with exactly `target` eigenvalues above lambda_*.

    lambda_* is drawn from the gap below the target-th reference eigenvalue,
    at least SEPARATION from every eigenvalue, so the oracle never refuses it.
    """
    L = truncation(BUMP_DECAY)
    for _ in range(100):
        depths = [rng.uniform(0.6, 1.5) for _ in range(n)]
        amps = [rng.uniform(2.0, 4.0) for _ in range(n)]
        radius = rng.uniform(3.0, 5.0)
        # the matrix potential is a constant rotation of n decoupled scalars,
        # so its spectrum is the union of theirs
        scalars = [
            (lambda x, d=d, a=amp: -d + a * _window(x, radius))
            for d, amp in zip(depths, amps)
        ]
        eigs = sorted(
            (e for f, a in zip(scalars, amps)
             for e in reference_eigenvalues(f, L, 0.0, a + 1.0)),
            reverse=True,
        )
        if len(eigs) < target:
            continue
        lo = max(eigs[target] if len(eigs) > target else 0.0, 0.0) + SEPARATION
        hi = eigs[target - 1] - SEPARATION
        if hi - lo >= SEPARATION:
            break
    else:
        raise RuntimeError("no bump with a well-separated lambda_* was found")
    lam = rng.uniform(lo, hi)
    rot = rng.uniform(0.0, math.pi) if n == 2 else 0.0
    values = [_symmetric(rot, [f(x) for f in scalars]) for x in BUMP_XS]
    q_inf = _symmetric(rot, [-d for d in depths])
    doc = {
        "n": n,
        "kind": "custom",
        "decay_rate": BUMP_DECAY,
        "potential": {"kind": "samples", "x": BUMP_XS, "values": values},
        "q_minus": q_inf,
        "q_plus": q_inf,
        "name": f"bump_n{n}",
    }
    return {"label": f"bump-n{n}", "doc": doc, "lambda_star": lam, "count": target}


def _strata(rng, lo, hi, k):
    """k draws from [lo, hi), one from each of k equal strata, in seeded order."""
    width = (hi - lo) / k
    draws = [lo + (j + rng.random()) * width for j in range(k)]
    rng.shuffle(draws)
    return draws


def config_square(seed, index):
    """Pass `index`: four expression pulses and four sampled bumps.

    Pulse widths are stratified over [0.5, 0.7] and each bump has a fixed
    number of eigenvalues above lambda_*, so every pass carries about the
    same work and a run's median does not hang on a few draws.
    """
    rng = random.Random(f"config-square/{seed}/{index}")
    specs = [_pulse_spec(rng, [beta]) for beta in _strata(rng, 0.5, 0.7, 3)]
    specs.append(_pulse_spec(rng, [rng.uniform(0.5, 0.6), rng.uniform(0.6, 0.7)]))
    specs += [_bump_spec(rng, 1, 1), _bump_spec(rng, 1, 1),
              _bump_spec(rng, 2, 2), _bump_spec(rng, 2, 2)]
    rng.shuffle(specs)
    return specs


# --------------------------------------------------------------------------
# scalar-spectrum

SPECTRUM_LAMBDA_STAR = 1e-3
SCALAR_PULSES = 6


def scalar_spectrum(seed, index):
    """Pass `index`: the sech pulse plus seeded scalar sech^2 pulses.

    Each pulse is posed on (-L, L) with the truncation L the CLI would use;
    pulse widths are stratified over [0.5, 0.6].  The sech pulse is the
    built-in model's potential written as a plain function, like the others,
    so every case is Prufer work only and the cases are of one size.
    """
    rng = random.Random(f"scalar-spectrum/{seed}/{index}")
    specs = [{
        "label": "sech-pulse",
        "beta": 0.5,          # Q = -1 + 3 sech^2(x / 2)
        "x0": 0.0,
        "half_width": truncation(1.0),
    }]
    for beta in _strata(rng, 0.5, 0.6, SCALAR_PULSES):
        specs.append({
            "label": "sech2-pulse",
            "beta": beta,
            "x0": rng.uniform(-1.0, 1.0),
            "half_width": truncation(2.0 * beta),
        })
    for spec in specs:
        b2 = spec["beta"] ** 2
        spec["eigenvalues"] = [5.0 * b2, 0.0, -3.0 * b2]
        spec["lambda_star"] = SPECTRUM_LAMBDA_STAR
        spec["count"] = 1
    rng.shuffle(specs)
    return specs


# --------------------------------------------------------------------------

WORKLOADS = {
    "builtin-cli": {
        "generate": builtin_cli,
        "why": (
            "the path users run: in-process cli.main over all subcommands and "
            "built-in models; the only workload that runs evans, the compare "
            "thread pool and cli"
        ),
    },
    "config-square": {
        "generate": config_square,
        "why": (
            "config-ingested potentials through the Maslov square and the FD "
            "oracle at two steps: conjugate detection, top edge, W reduction "
            "and band solves; bypasses evans and prufer"
        ),
    },
    "scalar-spectrum": {
        "generate": scalar_spectrum,
        "why": (
            "serial Prufer shooting only (find_eigenvalues, counts, conjugate "
            "points); where lockstep shooting must gain and flow, evans or "
            "oracle changes must not move"
        ),
    },
}
