"""Command-line front end: model ingestion, dispatch, plot-ready data emission.

Subcommands: prufer, spectrum, conjugate, square, evans, compare, radial,
oracle, models.  Exit codes are contractual: 0 success, 1 input or
computation error, 2 count disagreement from ``compare``.  All numeric
output is written with 17 significant digits so values round-trip exactly;
identical invocations produce byte-identical artifacts.

Curve data goes to CSV (columns documented per subcommand below), structured
results to JSON.  The environment variable MASLOV_STAB_THREADS caps any
internal parallelism.

conjugate, square, evans and compare evolve every frame through the one
batched propagator ``flow.propagate``; oracle and prufer share no code with it.
Artifacts reuse the computed answer: conjugate writes the path its points
were counted on, evans the contour values its winding was read from, and
oracle the discretization it counted on.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import evans as evans_mod
from . import flow, oracle, prufer, radial
from .errors import ConfigError, MaslovStabError
from .models import BUILTIN_NAMES, builtin, check_essential_stability, from_config

COMMANDS = (
    "prufer", "spectrum", "conjugate", "square", "evans", "compare",
    "radial", "oracle", "models",
)


class CliUsageError(MaslovStabError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


_OVERRIDE_RANGES = {
    # name: (lower, upper, inclusive-lower)
    "truncation": (0.0, float("inf"), False),
    # the floor keeps FlowOptions.refined()'s halved rtol above DOP853's
    # 100 eps clamp
    "rtol": (1e-13, 1e-2, True),
    "grid_step": (0.0, 0.05, False),
    "contour_radius": (0.0, float("inf"), False),
    "contour_samples": (8, 100_000, True),
    "count": (1, 10_000, True),
    "epsilon_shift": (0.0, float("inf"), False),
}


# float options whose admissible range (if any) does not already exclude
# inf and nan
_FINITE = (
    "lambda_star", "truncation", "contour_center", "contour_radius",
    "epsilon_shift",
)


def _flag(name):
    return "--" + name.replace("_", "-")


def _check_overrides(args):
    """Reject non-finite floats and numeric overrides outside their ranges."""
    for name in _FINITE:
        value = getattr(args, name, None)
        if value is not None and not np.all(np.isfinite(value)):
            raise CliUsageError(f"{_flag(name)} = {value!r} must be finite")
    for name, (lo, hi, closed_lo) in _OVERRIDE_RANGES.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        ok = (value >= lo if closed_lo else value > lo) and value <= hi
        if not ok:
            flag = _flag(name)
            raise CliUsageError(
                f"{flag} = {value!r} outside the admissible range "
                f"{'[' if closed_lo else '('}{lo}, {hi}]"
            )


def _fmt(value):
    return format(float(value), ".17g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [_fmt(v) if isinstance(v, float) else v for v in row]
            )


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_config(path):
    """Read and validate a JSON model configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError("path", f"cannot read config file {path}: {exc.strerror}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError("document", f"invalid JSON: {exc}")
    except RecursionError:
        raise ConfigError("document", "invalid JSON: nested too deeply")
    return from_config(doc)


def _resolve_model(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    name = getattr(args, "model", None)
    if not name:
        raise CliUsageError("one of --model or --config is required")
    try:
        return builtin(name)
    except KeyError as exc:
        raise CliUsageError(str(exc))


def _flow_options(args):
    kwargs = {}
    if getattr(args, "truncation", None) is not None:
        kwargs["truncation"] = args.truncation
    if getattr(args, "rtol", None) is not None:
        kwargs["rtol"] = args.rtol
    return flow.FlowOptions(**kwargs)


def _events_payload(events):
    return [
        {"param": e.param, "multiplicity": e.multiplicity, "direction": e.direction}
        for e in events
    ]


# --------------------------------------------------------------------------
# Subcommand implementations.  Each returns (exit_code, summary_line).

def _cmd_models(args):
    if args.output:
        _write_json(args.output, {"builtins": list(BUILTIN_NAMES)})
    return 0, "models=" + ",".join(BUILTIN_NAMES)


def _cmd_prufer(args):
    model = _resolve_model(args)
    if model.n != 1:
        raise CliUsageError("prufer requires a scalar (n = 1) model")
    opts = _flow_options(args).resolve(model)
    a, b = -opts.truncation, opts.truncation
    prob = prufer.ScalarProblem(q=lambda x: float(model.q(x)[0, 0]), interval=(a, b))
    traj = prufer.prufer_flow(prob, args.lambda_star, rtol=min(opts.rtol, 1e-9))
    if args.output:
        if args.format == "json":
            _write_json(args.output, {
                "lambda_star": args.lambda_star,
                "theta_end": traj.theta_end,
                "samples": [[x, t] for x, t in traj.samples],
            })
        else:
            _write_csv(args.output, ["x", "theta"],
                       [(float(x), float(t)) for x, t in traj.samples])
    return 0, f"theta_end={_fmt(traj.theta_end)}"


def _cmd_spectrum(args):
    model = _resolve_model(args)
    count = args.count
    opts = _flow_options(args).resolve(model)
    if model.n == 1:
        prob = prufer.ScalarProblem(
            q=lambda x: float(model.q(x)[0, 0]),
            interval=(-opts.truncation, opts.truncation),
        )
        vals = prufer.find_eigenvalues(prob, count)
        method = "prufer"
    else:
        disc = oracle.discretize(model, opts.truncation, args.grid_step)
        vals = oracle.eigenvalues(disc, k=count)
        method = "oracle"
    # eigenvalues of the truncated problem inside the essential spectrum are
    # artifacts of the box, not eigenvalues of the operator on the line
    vals = vals[vals > check_essential_stability(model).max_eig_qinf]
    if args.output:
        if args.format == "json":
            _write_json(args.output, {"method": method,
                                      "eigenvalues": [float(v) for v in vals]})
        else:
            _write_csv(args.output, ["index", "lambda"],
                       [(j, float(v)) for j, v in enumerate(vals)])
    return 0, "eigenvalues=" + ",".join(_fmt(v) for v in vals)


def _cmd_conjugate(args):
    model = _resolve_model(args)
    opts = _flow_options(args).resolve(model)
    events, path = flow._conjugate_points_and_path(model, args.lambda_star, opts)
    count = sum(e.multiplicity for e in events)
    if args.output:
        xs, frames = flow._checked_path(*path)
        det_a = np.linalg.det(frames[:, :model.n])
        params = np.array([e.param for e in events]) if events else np.array([])
        rows = []
        for x, det in zip(xs, det_a):
            nearest = int(np.argmin(np.abs(params - x))) if len(params) else -1
            hit = (
                len(params) > 0
                and abs(params[nearest] - x) <= 0.5 * opts.sample_dx
            )
            rows.append((
                float(x), float(det), int(hit),
                events[nearest].direction if hit else 0,
            ))
        if args.format == "json":
            _write_json(args.output, {
                "lambda_star": args.lambda_star,
                "events": _events_payload(events),
                "curve": [[r[0], r[1]] for r in rows],
            })
        else:
            _write_csv(args.output, ["x", "det_a", "event", "direction"], rows)
    return 0, f"conjugate_points={count}"


def _cmd_square(args):
    model = _resolve_model(args)
    opts = _flow_options(args)
    report = flow.maslov_square(model, args.lambda_star, opts)
    edges = {"left": report.left_events, "top": report.top_events,
             "right": report.right_events, "bottom": report.bottom_events}
    if args.output:
        if args.format == "json":
            _write_json(args.output, {
                "lambda_star": report.lambda_star,
                "lambda_inf": report.lambda_inf,
                "net_index": report.net_index,
                "edges": {edge: _events_payload(e) for edge, e in edges.items()},
            })
        else:
            rows = [(edge, float(e.param), e.multiplicity, e.direction)
                    for edge, events in edges.items() for e in events]
            _write_csv(args.output, ["edge", "param", "crossing", "direction"], rows)
    # crossings, not events: an event of multiplicity m is m crossings
    summary = " ".join([f"net_index={report.net_index}"] + [
        f"{edge}={sum(e.multiplicity for e in events)}"
        for edge, events in edges.items()
    ])
    return 0, summary


def _cmd_evans(args):
    model = _resolve_model(args)
    opts = _flow_options(args).resolve(model)
    if args.contour_center is None or args.contour_radius is None:
        lam_inf = flow.lambda_ceiling(model, args.epsilon_shift, opts.truncation)
        contour = evans_mod.Contour.enclosing(args.epsilon_shift, lam_inf,
                                              samples=args.contour_samples)
    else:
        contour = evans_mod.Contour(
            center=complex(args.contour_center[0], args.contour_center[1]),
            radius=args.contour_radius,
            samples=args.contour_samples,
        )
    winding, values = flow._winding_and_values(model, contour, opts)
    if args.output:
        ts = flow._contour_params(contour.samples)[:-1]
        rows = [
            (float(t), float(pt.real), float(pt.imag),
             float(v.real), float(v.imag))
            for t, pt, v in zip(ts, contour.point(ts), values)
        ]
        if args.format == "json":
            _write_json(args.output, {
                "winding": winding,
                "contour": {"center": [contour.center.real, contour.center.imag],
                            "radius": contour.radius,
                            "samples": contour.samples},
            })
        else:
            _write_csv(args.output,
                       ["t", "re_lambda", "im_lambda", "re_value", "im_value"],
                       rows)
    return 0, f"winding={winding}"


def _cmd_compare(args):
    model = _resolve_model(args)
    opts = _flow_options(args)
    report = evans_mod.compare_counts(
        model, opts, epsilon_shift=args.epsilon_shift, oracle_h=args.grid_step
    )
    if args.output:
        _write_json(args.output, {
            "conjugate": report.conjugate_count,
            "winding": report.winding_count,
            "oracle": report.oracle_count,
            "epsilon_shift": report.epsilon_shift,
            "lambda_inf": report.lambda_inf,
            "agree": report.agree,
            "events": _events_payload(report.events),
        })
    verdict = "AGREE" if report.agree else "DISAGREE"
    summary = (
        f"conjugate={report.conjugate_count} winding={report.winding_count} "
        f"oracle={report.oracle_count} {verdict}"
    )
    return (0 if report.agree else 2), summary


def _cmd_radial(args):
    if args.dimension < 2:
        raise CliUsageError("--d must be at least 2")
    if args.mode < 0:
        raise CliUsageError("--l must be nonnegative")
    unstable, stable = radial.mode_exponents(args.dimension, args.mode)
    payload = {
        "d": args.dimension,
        "l": args.mode,
        "exponents": [unstable, stable],
        "laplace_beltrami_eigenvalue": radial.laplace_beltrami_eigenvalue(
            args.dimension, args.mode
        ),
        "cylinder_spectrum": [int(k) for k in radial.cylinder_spectrum(args.k_max)],
    }
    if args.dimension >= 3:
        proj = radial.DichotomyProjection.for_mode(args.dimension, args.mode)
        fits = {}
        for name, direction in (
            ("unstable", proj.unstable_direction), ("stable", proj.stable_direction),
        ):
            traj = radial.evolve_mode(args.dimension, args.mode, direction)
            fits[name] = traj.fitted_rate
        payload["fitted_rates"] = fits
        payload["non_decaying"] = proj.non_decaying
    if args.output:
        _write_json(args.output, payload)
    return 0, f"exponents={_fmt(unstable)},{_fmt(stable)}"


def _cmd_oracle(args):
    model = _resolve_model(args)
    opts = _flow_options(args).resolve(model)
    disc = oracle.discretize(model, opts.truncation, args.grid_step)
    count = oracle._count_above(model, disc, args.lambda_star)
    if args.output:
        top = oracle.eigenvalues(disc, k=args.count)
        if args.format == "json":
            _write_json(args.output, {
                "count_above": count,
                "lambda_star": args.lambda_star,
                "top_eigenvalues": [float(v) for v in top],
            })
        else:
            _write_csv(args.output, ["index", "lambda"],
                       [(j, float(v)) for j, v in enumerate(top)])
    return 0, f"count={count}"


_HANDLERS = {
    "models": _cmd_models,
    "prufer": _cmd_prufer,
    "spectrum": _cmd_spectrum,
    "conjugate": _cmd_conjugate,
    "square": _cmd_square,
    "evans": _cmd_evans,
    "compare": _cmd_compare,
    "radial": _cmd_radial,
    "oracle": _cmd_oracle,
}


def _add_model_args(sub):
    sub.add_argument("--model", help="builtin model name")
    sub.add_argument("--config", help="path to a JSON model configuration")
    sub.add_argument("--truncation", type=float, help="half-width L of [-L, L]")
    sub.add_argument("--rtol", type=float, help="integration tolerance")


def _add_output_args(sub):
    sub.add_argument("--output", help="artifact path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = _Parser(prog="maslov-stab", description=__doc__)
    parser.add_argument("--json-errors", action="store_true",
                        help="emit machine-readable errors on stderr")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("models", help="list builtin models")
    _add_output_args(p)

    p = subs.add_parser("prufer", help="angle trajectory for a scalar model")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--lambda-star", type=float, required=True)

    p = subs.add_parser("spectrum", help="top eigenvalues")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--grid-step", type=float, default=0.02)

    p = subs.add_parser("conjugate", help="conjugate points at lambda_star")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--lambda-star", type=float, required=True)

    p = subs.add_parser("square", help="Maslov square crossing ledger")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--lambda-star", type=float, required=True)

    p = subs.add_parser("evans", help="Evans winding number over a contour")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--contour-center", type=float, nargs=2,
                   metavar=("RE", "IM"))
    p.add_argument("--contour-radius", type=float)
    p.add_argument("--contour-samples", type=int, default=256)
    p.add_argument("--epsilon-shift", type=float, default=1e-3)

    p = subs.add_parser("compare", help="three-channel unstable count")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--epsilon-shift", type=float, default=1e-3)
    p.add_argument("--grid-step", type=float, default=0.02)

    p = subs.add_parser("radial", help="radial mode exponents and dichotomy")
    _add_output_args(p)
    p.add_argument("--d", dest="dimension", type=int, required=True)
    p.add_argument("--l", dest="mode", type=int, required=True)
    p.add_argument("--k-max", type=int, default=5)

    p = subs.add_parser("oracle", help="finite-difference eigenvalue counts")
    _add_model_args(p)
    _add_output_args(p)
    p.add_argument("--lambda-star", type=float, required=True)
    p.add_argument("--grid-step", type=float, default=0.02)
    p.add_argument("--count", type=int, default=5)

    return parser


def _emit_error(exc, json_errors):
    if json_errors:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ConfigError):
            payload["field"] = exc.field
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {exc}\n")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except CliUsageError as exc:
        _emit_error(exc, "--json-errors" in (argv or sys.argv))
        return 1
    try:
        _check_overrides(args)
        code, summary = _HANDLERS[args.command](args)
    except MaslovStabError as exc:
        _emit_error(exc, args.json_errors)
        return 1
    sys.stdout.write(summary + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
