"""Build runnable, self-checking cases from generated specs.

Building a case is the set-up a user pays before any answer: importing the
package and constructing the model or problem (``builtin`` and
``validate_model``, ``from_config`` with its lazy sympy and spline imports,
``ScalarProblem``).  Running a case is one certified answer; checking it
compares that answer with the reference carried in the spec.

Every call into the package goes through a module attribute
(``flow.maslov_square``, not a name imported from it), so the tracer in
``spans.py`` sees each call it wraps.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

from maslovstab import cli, flow, models, oracle, prufer

EIGENVALUE_TOL = 1e-6     # Prufer eigenvalues against the closed form
FD_EIGENVALUE_TOL = 1e-3  # FD spectrum at h = 0.02: O(h^2) error
RATE_TOL = 1e-6           # fitted radial exponents against the closed form


class WrongAnswer(Exception):
    """A case returned an answer that fails its reference check."""


@dataclass
class Case:
    label: str
    run: callable                   # () -> outcome; the timed part
    check: callable                 # outcome -> None, raises WrongAnswer
    stats: dict = field(default_factory=dict)   # filled by check


def _require(ok, message):
    if not ok:
        raise WrongAnswer(message)


# --------------------------------------------------------------------------
# builtin-cli

def _summary_fields(line):
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def _check_cli(spec, path, outcome):
    code, out, err = outcome
    _require(code == 0, f"exit code {code}: {err.strip()}")
    _require(os.path.getsize(path) > 0, f"empty artifact {path}")
    fields = _summary_fields(out.strip())
    command = spec["command"]
    c = spec.get("count")
    if command == "compare":
        _require(out.strip().endswith("AGREE"), f"channels disagree: {out!r}")
        got = (int(fields["conjugate"]), int(fields["winding"]), int(fields["oracle"]))
        _require(got == (c, c, c), f"compare counts {got}, expected {c}")
    elif command == "square":
        got = {k: int(fields[k]) for k in ("net_index", "left", "top", "right", "bottom")}
        want = {"net_index": 0, "left": c, "top": c, "right": 0, "bottom": 0}
        _require(got == want, f"square ledger {got}, expected {want}")
    elif command == "evans":
        _require(int(fields["winding"]) == c, f"winding {fields['winding']}, expected {c}")
    elif command == "conjugate":
        got = int(fields["conjugate_points"])
        _require(got == c, f"conjugate points {got}, expected {c}")
    elif command == "oracle":
        _require(int(fields["count"]) == c, f"oracle count {fields['count']}, expected {c}")
    elif command == "prufer":
        turns = float(fields["theta_end"]) / math.pi
        _require(math.floor(turns) == c and turns - math.floor(turns) > 1e-6,
                 f"theta_end / pi = {turns!r}, expected in ({c}, {c + 1})")
    elif command == "spectrum":
        with open(path) as fh:
            got = json.load(fh)["eigenvalues"]
        err_max = max(abs(g - w) for g, w in zip(got, spec["eigenvalues"]))
        _require(len(got) == 3 and err_max <= FD_EIGENVALUE_TOL,
                 f"FD eigenvalues {got}, expected {spec['eigenvalues']}")
    elif command == "radial":
        with open(path) as fh:
            got = json.load(fh)
        want = spec["exponents"]
        _require(got["exponents"] == want, f"exponents {got['exponents']}, expected {want}")
        fitted = [got["fitted_rates"]["unstable"], got["fitted_rates"]["stable"]]
        _require(max(abs(f - w) for f, w in zip(fitted, want)) <= RATE_TOL,
                 f"fitted rates {fitted}, expected {want}")
        _require(got["cylinder_spectrum"] == list(range(-5, 6)),
                 f"cylinder spectrum {got['cylinder_spectrum']}")
    else:
        raise ValueError(f"unknown command {command!r}")


def _cli_case(spec, workdir):
    path = os.path.join(workdir, spec["artifact"])
    argv = spec["argv"] + ["--output", path]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    return Case(spec["label"], run, lambda outcome: _check_cli(spec, path, outcome))


def build_builtin_cli(specs, workdir):
    # the CLI rebuilds its model on every call; building each once here is
    # the import-plus-validation cost a user pays per invocation
    for name in sorted({s["model"] for s in specs if s["model"]}):
        models.builtin(name)
    return [_cli_case(spec, workdir) for spec in specs]


# --------------------------------------------------------------------------
# config-square

def _config_case(spec):
    model = models.from_config(spec["doc"])
    L = flow.FlowOptions().resolve(model).truncation
    lam = spec["lambda_star"]

    def run():
        coarse = oracle.oracle_count_above(model, L, 0.02, lam)
        fine = oracle.oracle_count_above(model, L, 0.01, lam)
        return coarse, fine, flow.maslov_square(model, lam)

    def check(outcome):
        coarse, fine, square = outcome
        c = spec["count"]
        left = sum(e.multiplicity for e in square.left_events)
        top = sum(e.multiplicity for e in square.top_events)
        got = (coarse, fine, left, top)
        _require(got == (c, c, c, c),
                 f"oracle h=0.02, h=0.01, left, top = {got}, expected {c}")
        _require(square.net_index == 0 and square.consistent,
                 f"net index {square.net_index}, right/bottom "
                 f"{len(square.right_events)}/{len(square.bottom_events)}")

    return Case(spec["label"], run, check)


def build_config_square(specs, workdir):
    return [_config_case(spec) for spec in specs]


# --------------------------------------------------------------------------
# scalar-spectrum

def _spectrum_case(spec):
    L = spec["half_width"]
    b2 = spec["beta"] ** 2
    beta, x0 = spec["beta"], spec["x0"]

    def q(x):
        return -4.0 * b2 + 12.0 * b2 / math.cosh(beta * (x - x0)) ** 2

    prob = prufer.ScalarProblem(q=q, interval=(-L, L))
    lam = spec["lambda_star"]

    def run():
        return (
            prufer.find_eigenvalues(prob, 3),
            prufer.count_eigenvalues_above(prob, lam),
            prufer.conjugate_points(prob, lam),
        )

    case = Case(spec["label"], run, None)

    def check(outcome):
        eigs, count, points = outcome
        want = spec["eigenvalues"]
        err = max(abs(float(g) - w) for g, w in zip(eigs, want))
        case.stats["eig_err"] = err
        _require(len(eigs) == 3 and err <= EIGENVALUE_TOL,
                 f"eigenvalues {list(eigs)}, expected {want}")
        _require(count == spec["count"], f"count {count}, expected {spec['count']}")
        _require(len(points) == spec["count"],
                 f"{len(points)} conjugate points, expected {spec['count']}")

    case.check = check
    return case


def build_scalar_spectrum(specs, workdir):
    return [_spectrum_case(spec) for spec in specs]


BUILDERS = {
    "builtin-cli": build_builtin_cli,
    "config-square": build_config_square,
    "scalar-spectrum": build_scalar_spectrum,
}
