"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time

import numpy as np
import pytest

from maslovstab import evans, flow, oracle, prufer, radial, symplectic
from maslovstab.errors import SeparationError
from maslovstab.flow import FlowOptions
from maslovstab.models import builtin, constant_model
from zoo import random_bump_model, random_pulse_model

SECH = builtin("scalar_sech_pulse")
FRONT = builtin("allen_cahn_front")
DEMO = builtin("coupled_gradient_demo")


def report(number, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {tag}: {label}{suffix}")
    assert passed, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def square_suite():
    """50 randomized bump models with their square reports and oracle counts."""
    rng = np.random.default_rng(20240811)
    runs = []
    while len(runs) < 50:
        model = random_bump_model(rng)
        lam_star = 1e-3 if rng.random() < 0.5 else float(rng.uniform(-0.4, 0.8))
        opts = FlowOptions().resolve(model)
        try:
            count_fd = oracle.oracle_count_above(
                model, opts.truncation, 0.02, lam_star
            )
        except SeparationError:
            continue
        rep = flow.maslov_square(model, lam_star, opts)
        runs.append((model, lam_star, rep, count_fd))
    return runs


def test_c01_sturm_liouville_exactness():
    prob = prufer.ScalarProblem(q=lambda x: 0.0, interval=(0.0, np.pi))
    start = time.perf_counter()
    vals = prufer.find_eigenvalues(prob, 3)
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(vals - np.array([-1.0, -4.0, -9.0]))))
    report(
        1, "free Dirichlet eigenvalues {-1,-4,-9} within 1e-8, under 1 s",
        err < 1e-8 and elapsed < 1.0,
        f"max err {err:.2e}, {elapsed:.2f} s",
    )


def test_c02_pulse_instability():
    start = time.perf_counter()
    base = flow.count_unstable_eigenvalues(SECH)
    ok = base.conjugate_count == 1
    rng = np.random.default_rng(811)
    failures = []
    for k in range(50):
        model, blocks = random_pulse_model(rng)
        rep = flow.count_unstable_eigenvalues(model)
        if rep.conjugate_count < 1:
            failures.append(k)
        if rep.conjugate_count != blocks:
            failures.append(k)
    elapsed = time.perf_counter() - start
    report(
        2, "pulse instability: sech count 1, 50 random pulses all >= 1, < 60 s",
        ok and not failures and elapsed < 60.0,
        f"{elapsed:.1f} s, failures {failures}",
    )


def test_c03_poschl_teller_spectrum():
    disc = oracle.discretize(SECH, 40.0, 0.01)
    top = oracle.eigenvalues(disc, k=3)
    err = float(np.max(np.abs(top - np.array([1.25, 0.0, -0.75]))))
    report(
        3, "fd_oracle sech top three {1.25, 0, -0.75} within 1e-3 (h=0.01, L=40)",
        err < 1e-3, f"max err {err:.2e}",
    )


def _square_counts(rep):
    left = sum(e.multiplicity for e in rep.left_events)
    top = sum(e.multiplicity for e in rep.top_events)
    return left, top


def test_c04_square_identity(square_suite):
    bad = []
    for name, lam_star in (
        ("scalar_sech_pulse", 1e-3), ("scalar_sech_pulse", -0.5),
        ("allen_cahn_front", 1e-3), ("coupled_gradient_demo", 1e-3),
    ):
        model = builtin(name)
        rep = flow.maslov_square(model, lam_star)
        left, top = _square_counts(rep)
        opts = FlowOptions().resolve(model)
        fd = oracle.oracle_count_above(model, opts.truncation, 0.02, lam_star)
        if not (left == top == fd and rep.net_index == 0):
            bad.append((name, lam_star, left, top, fd, rep.net_index))
    for model, lam_star, rep, fd in square_suite:
        left, top = _square_counts(rep)
        if not (left == top == fd and rep.net_index == 0):
            bad.append((model.name, lam_star, left, top, fd, rep.net_index))
    report(
        4, "square identity: left == top == oracle and net index 0, 54 runs",
        not bad, f"violations {bad[:3]}",
    )


def test_c05_monotonicity(square_suite):
    bad = []
    for model, lam_star, rep, _ in square_suite:
        left_dirs = {e.direction for e in rep.left_events}
        top_dirs = {e.direction for e in rep.top_events}
        if left_dirs and left_dirs != {1}:
            bad.append((model.name, "left", left_dirs))
        if top_dirs and top_dirs != {-1}:
            bad.append((model.name, "top", top_dirs))
    report(
        5, "monotonicity: left crossings all +1, top crossings all -1",
        not bad, f"violations {bad[:3]}",
    )


def test_c06_evans_agreement():
    rng = np.random.default_rng(66)
    models = [SECH, FRONT, DEMO, constant_model([[-1.0]])]
    for _ in range(3):
        models.append(random_bump_model(rng))
    bad = []
    for model in models:
        opts = FlowOptions().resolve(model)
        lam_inf = max(flow.lambda_max_bound(model, truncation=opts.truncation),
                      1e-3 + 1.0)
        contour = evans.Contour.enclosing(1e-3, lam_inf)
        # raises PhaseStepError when flow.MAX_REFINE = 3 rounds do not suffice
        winding = evans.winding_number(model, contour, opts)
        events = flow.detect_conjugate_points(model, 1e-3, opts)
        conj = sum(e.multiplicity for e in events)
        if winding != conj:
            bad.append((model.name, winding, conj))
    report(
        6, "Evans winding equals conjugate count; refinement <= 3 rounds",
        not bad and flow.MAX_REFINE == 3, f"violations {bad}",
    )


def test_c07_front_marginality():
    rep = flow.count_unstable_eigenvalues(FRONT)
    disc = oracle.discretize(FRONT, 40.0, 0.01)
    top = float(oracle.eigenvalues(disc, k=1)[0])
    report(
        7, "Allen-Cahn front: 0 unstable eigenvalues, top eigenvalue ~ 0",
        rep.conjugate_count == 0 and abs(top) < 1e-3,
        f"count {rep.conjugate_count}, top {top:.2e}",
    )


def test_c08_scalar_cross_check():
    rng = np.random.default_rng(88)
    models = [SECH, FRONT]
    while len(models) < 4:
        m = random_bump_model(rng)
        if m.n == 1:
            models.append(m)
    worst = 0.0
    counts_ok = True
    for model in models:
        opts = FlowOptions(rtol=1e-11).resolve(model)
        L = opts.truncation
        for lam_star in (1e-3, 0.35):
            events = flow.detect_conjugate_points(model, lam_star, opts)
            prob = prufer.ScalarProblem(
                q=lambda x, m=model: float(m.q(x)[0, 0]), interval=(-L, L)
            )
            ref = prufer.conjugate_points(prob, lam_star, rtol=1e-12)
            if len(events) != len(ref):
                counts_ok = False
                continue
            for e, x_ref in zip(events, ref):
                worst = max(worst, abs(e.param - x_ref))
    report(
        8, "scalar models: flow conjugate points match Prufer within 1e-6",
        counts_ok and worst < 1e-6, f"worst gap {worst:.2e}",
    )


def test_c09_radial_dichotomy():
    exact = all(
        radial.mode_exponents(3, l) == (float(l), -float(l + 1)) for l in range(11)
    )
    fits_ok = True
    for l in (1, 2, 3):
        proj = radial.DichotomyProjection.for_mode(3, l)
        for direction, target in (
            (proj.unstable_direction, float(l)),
            (proj.stable_direction, -float(l + 1)),
        ):
            traj = radial.evolve_mode(3, l, direction)
            if abs(traj.fitted_rate - target) >= 1e-3:
                fits_ok = False
    spec = radial.cylinder_spectrum(5)
    spec_ok = np.array_equal(spec, np.arange(-5, 6))
    report(
        9, "radial exponents {l, -(l+1)} exact, fitted rates 1e-3, cylinder -5..5",
        exact and fits_ok and spec_ok,
    )


def test_c10_numerical_hygiene():
    drift_ok = True
    worst_drift = 0.0
    for model, lam in ((SECH, 1e-3), (SECH, -0.5), (FRONT, 1e-3), (DEMO, 0.3)):
        _, frames = flow.evolve_unstable_frame(model, lam)
        d = float(np.max(symplectic.check_lagrangian(frames).asymmetry))
        worst_drift = max(worst_drift, d)
        if d >= 1e-8:
            drift_ok = False
    counts_ok = True
    for model, lam_star in ((SECH, -0.5), (FRONT, 1e-3), (DEMO, 1e-3)):
        base = FlowOptions().resolve(model)
        doubled = FlowOptions(truncation=2.0 * base.truncation)
        c1 = sum(e.multiplicity for e in flow.detect_conjugate_points(model, lam_star, base))
        c2 = sum(e.multiplicity for e in flow.detect_conjugate_points(model, lam_star, doubled))
        f1 = oracle.oracle_count_above(model, 40.0, 0.02, lam_star)
        f2 = oracle.oracle_count_above(model, 40.0, 0.01, lam_star)
        if not (c1 == c2 == f1 == f2):
            counts_ok = False
    report(
        10, "Lagrangian residual < 1e-8 everywhere; L-doubling and h-halving stable",
        drift_ok and counts_ok, f"worst drift {worst_drift:.2e}",
    )
