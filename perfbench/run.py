"""maslovstab benchmark: time to a certified count, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One client runs the workload's cases in a closed loop: each case starts when
the previous one has finished and been checked against its reference.  A
run is a whole number of passes, each over a seeded case list; it starts
another pass while the last pass still fits in ``--seconds``, and always
runs one.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``spans.py``).  The last line of
standard output is one JSON object; details of the run (environment, every
case, the layer-share table, and with tracing the spans) are written under
``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 3

# Tail percentile per workload, fixed so that a faster program, which fits
# more passes in a run, is judged at the same percentile.  builtin-cli: a
# run makes two to four passes of 19 cases; p82.5 leaves ten cases beyond
# it at three passes and falls inside the copies of one case kind
# (square on the sech pulse) for two to four passes, so it does not jump
# between kinds.  config-square: a run makes three to five passes of 8
# cases; p60 leaves ten beyond at three.  scalar-spectrum: a run holds
# seven cases of several seconds each, so no percentile has ten beyond it;
# p75 (two beyond) is reported, because the slowest of seven cases moves
# with every slow second of a shared host.
TAIL_PERCENTILE = {"builtin-cli": 82.5, "config-square": 60.0, "scalar-spectrum": 75.0}

END_TO_END = (
    ("case_p50_s", "s"),
    ("case_tail_s", "s"),
    ("cases_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

EXACT_UNITS = ("count", "bytes_computed", "abs")


@dataclass
class Record:
    label: str
    seconds: float            # wall time, then rescaled to reference speed
    ok: bool
    error: str = ""
    stats: dict = field(default_factory=dict)
    raw_seconds: float = 0.0  # wall time as measured


def run_case(case):
    start = perf_counter()
    try:
        outcome = case.run()
    except Exception as exc:  # a refusal or crash is a counted failure
        return Record(case.label, perf_counter() - start, False,
                      f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - start
    try:
        case.check(outcome)
    except cases.WrongAnswer as exc:
        return Record(case.label, seconds, False, f"WrongAnswer: {exc}", dict(case.stats))
    return Record(case.label, seconds, True, "", dict(case.stats))


def run_pass(case_list):
    """Run every case once; times are rescaled by the speed readings around each."""
    records = []
    k_before = speed.kernel_seconds()
    for case in case_list:
        rec = run_case(case)
        k_after = speed.kernel_seconds()
        rec.raw_seconds = rec.seconds
        rec.seconds *= speed.scale(k_before, k_after)
        k_before = k_after
        records.append(rec)
    return records, sum(r.seconds for r in records)


def setup_seconds(workload, specs, workdir):
    """Median set-up time of fresh interpreters, in reference seconds, and the raw samples."""
    job = json.dumps({"workload": workload, "specs": specs, "workdir": workdir})
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        k_before = speed.kernel_seconds()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py")],
            input=job, capture_output=True, text=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * speed.scale(k_before, probe["kernel_s"]))
    return statistics.median(scaled), raw


def timed_run(workload, seed, workdir, seconds):
    generator = generate.WORKLOADS[workload]["generate"]
    build = cases.BUILDERS[workload]
    specs = generator(seed, 0)
    setup_s, setup_samples = setup_seconds(workload, specs, workdir)
    records, walls = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        if walls:
            specs = generator(seed, len(walls))
        recs, wall = run_pass(build(specs, workdir))
        records += recs
        walls.append(wall)  # sum of rescaled case times
        if perf_counter() - start + (perf_counter() - round_start) > seconds:
            break
    # with no verified case (correct is then false) the times read 0
    ok_times = [r.seconds for r in records if r.ok] or [0.0]
    pct = TAIL_PERCENTILE[workload]
    n_ok = sum(r.ok for r in records)
    metrics = {
        "case_p50_s": statistics.median(ok_times),
        "case_tail_s": float(numpy.percentile(ok_times, pct)),
        "cases_per_s": n_ok / sum(walls),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for t in ok_times if t > metrics["case_tail_s"])
    raw_ok = [r.raw_seconds for r in records if r.ok] or [0.0]
    info = {
        "passes": len(walls),
        "pass_case_s": walls,
        "raw_case_p50_s": statistics.median(raw_ok),
        "raw_cases_per_s": n_ok / sum(r.raw_seconds for r in records),
        "setup_raw_samples_s": setup_samples,
        "tail": {"percentile": pct, "cases": n_ok, "cases_beyond": beyond},
    }
    print(f"# {workload}: {len(records)} cases in {len(walls)} passes "
          f"({sum(walls):.3f} reference s); tail = p{pct:g} of {n_ok} verified "
          f"cases, {beyond} beyond it; raw wall: case p50 {info['raw_case_p50_s']:.4f} s, "
          f"set-up samples {setup_samples}")
    return metrics, records, info


# --------------------------------------------------------------------------
# traced run

PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("models.q.calls", "count"),
    ("models.q.self_s", "s"),
    ("models.from_config.s", "s"),
    ("models.validate_model.s", "s"),
    ("flow.detect_conjugate_points.calls", "count"),
    ("flow.detect_conjugate_points.self_s", "s"),
    ("flow.solve_ivp.calls", "count"),
    ("flow.solve_ivp.nfev", "count"),
    ("flow.solve_ivp.self_s", "s"),
    ("flow.retry_ratio", "ratio"),
    ("flow.maslov_square.self_s", "s"),
    ("flow.lambda_max_bound.self_s", "s"),
    ("symplectic.unitary_reduction.calls", "count"),
    ("symplectic.unitary_reduction.self_s", "s"),
    ("symplectic.path_maslov_index.self_s", "s"),
    ("symplectic.check_lagrangian.calls", "count"),
    ("evans.winding_number.calls", "count"),
    ("evans.winding_number.self_s", "s"),
    ("evans.compare_counts.self_s", "s"),
    ("oracle.discretize.calls", "count"),
    ("oracle.discretize.self_s", "s"),
    ("oracle.discretize.s", "s"),
    ("oracle.oracle_count_above.self_s", "s"),
    ("oracle.eigvals_banded.calls", "count"),
    ("oracle.eigvals_banded.self_s", "s"),
    ("oracle.unknowns", "count"),
    ("oracle.band_bytes", "bytes_computed"),
    ("prufer.prufer_flow.calls", "count"),
    ("prufer.prufer_flow.self_s", "s"),
    ("prufer.solve_ivp.nfev", "count"),
    ("prufer.solve_ivp.self_s", "s"),
    ("prufer.find_eigenvalues.self_s", "s"),
    ("prufer.shots_per_eigenvalue", "ratio"),
    ("prufer.eig_err_max", "abs"),
    ("radial.evolve_mode.calls", "count"),
    ("radial.evolve_mode.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def layer_values(tracer, summary, records):
    """Per-layer metrics of one traced set-up plus pass (all but the overhead)."""
    names, counters = summary["names"], summary["counters"]
    out = {}
    for metric, _ in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind in ("calls", "self_s", "s"):
            out[metric] = names.get(span, {}).get(kind, 0)
    for key in ("flow.solve_ivp.nfev", "prufer.solve_ivp.nfev",
                "oracle.unknowns", "oracle.band_bytes"):
        out[key] = counters.get(key, 0)
    detections = names.get("flow.detect_conjugate_points", {}).get("calls", 0)
    retries = names.get("flow.FlowOptions.refined", {}).get("calls", 0)
    out["flow.retry_ratio"] = retries / detections if detections else 0.0
    eigenvalues = counters.get("prufer.eigenvalues", 0)
    shots = tracer.calls_under(summary, "prufer.prufer_flow", "prufer.find_eigenvalues")
    out["prufer.shots_per_eigenvalue"] = shots / eigenvalues if eigenvalues else 0.0
    errs = [r.stats["eig_err"] for r in records if "eig_err" in r.stats]
    out["prufer.eig_err_max"] = max(errs) if errs else 0.0
    return out


def layer_shares(summary):
    """Share of traced self time per layer module, with its base in raw seconds."""
    per_layer = {}
    for name, row in summary["names"].items():
        layer = name.partition(".")[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + row["self_s"]
    base = sum(per_layer.values())
    return {
        "base_self_raw_s": base,
        "share": {k: (v / base if base else 0.0) for k, v in sorted(per_layer.items())},
    }


def run_paired(plain_cases, traced_cases, tracer):
    """Run each case untraced, then traced, back to back.

    Both runs of a case share the speed readings around the pair, so the
    tracing overhead is measured under the same machine state.
    """
    plain, traced = [], []
    k_before = speed.kernel_seconds()
    for plain_case, traced_case in zip(plain_cases, traced_cases):
        pair = [run_case(plain_case)]
        with tracer:
            pair.append(run_case(traced_case))
        k_after = speed.kernel_seconds()
        for rec in pair:
            rec.raw_seconds = rec.seconds
            rec.seconds *= speed.scale(k_before, k_after)
        k_before = k_after
        plain.append(pair[0])
        traced.append(pair[1])
    return plain, traced


def traced_run(workload, seed, workdir, seconds, spans_path):
    specs = generate.WORKLOADS[workload]["generate"](seed, 0)
    build = cases.BUILDERS[workload]
    plain_cases = build(specs, workdir)
    rounds, records = [], []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        tracer = spans.Tracer()
        with tracer:
            traced_cases = build(specs, workdir)
        plain, traced = run_paired(plain_cases, traced_cases, tracer)
        records += plain + traced
        summary = tracer.summary()
        plain_wall = sum(r.seconds for r in plain)
        traced_wall = sum(r.seconds for r in traced)
        # span times are raw wall; put them on the reference scale of the pass
        factor = traced_wall / sum(r.raw_seconds for r in traced)
        values = layer_values(tracer, summary, traced)
        for metric, unit in PER_LAYER:
            if unit == "s":
                values[metric] *= factor
        rounds.append({
            "plain_wall": plain_wall,
            "traced_wall": traced_wall,
            "values": values,
        })
        if len(rounds) == 1:
            tracer.save(spans_path, summary)
            shares = layer_shares(summary)
            shares["traced_pass_s"] = traced_wall
        if perf_counter() - start + (perf_counter() - round_start) > seconds:
            break
    units = dict(PER_LAYER)
    metrics, repeat = {}, True
    for metric, values in ((m, [r["values"][m] for r in rounds]) for m in rounds[0]["values"]):
        if units[metric] in EXACT_UNITS:
            repeat &= all(v == values[0] for v in values)
            metrics[metric] = values[0]
        else:
            metrics[metric] = statistics.median(values)
    metrics["trace.overhead_frac"] = (
        statistics.median(r["traced_wall"] for r in rounds)
        / statistics.median(r["plain_wall"] for r in rounds) - 1.0
    )
    if not repeat:
        print("# warning: exact counters differed between traced rounds", file=sys.stderr)
    info = {
        "rounds": [{k: r[k] for k in ("plain_wall", "traced_wall")} for r in rounds],
        "counters_repeat": repeat,
        "layer_shares": shares,
        "spans": os.path.relpath(spans_path, ROOT),
    }
    print(f"# {workload}: {len(rounds)} traced rounds; layer shares of "
          f"{shares['base_self_raw_s']:.3f} raw s of self time: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares["share"].items()))
    return metrics, records, info


# --------------------------------------------------------------------------

def environment():
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "MASLOV_STAB_THREADS": os.environ.get("MASLOV_STAB_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    units = dict(PER_LAYER if args.trace else END_TO_END)
    if declared_metrics(args.trace) != units:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            metrics, records, info = traced_run(
                args.workload, args.seed, workdir, args.seconds, stem + "-spans.npz")
        else:
            metrics, records, info = timed_run(args.workload, args.seed, workdir, args.seconds)
    env = environment()
    failed = [r for r in records if not r.ok]
    for r in failed[:5]:
        print(f"# failed {r.label}: {r.error}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "result": result, "info": info,
                   "cases": [vars(r) for r in records]}, fh, indent=1)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def _import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import maslovstab
    except ImportError as exc:
        print(f"error: cannot import maslovstab from {SRC}: {exc}", file=sys.stderr)
        return False
    if not os.path.realpath(maslovstab.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: maslovstab imported from {maslovstab.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    if not _import_package():
        sys.exit(1)
    import cases
    import generate
    import spans
    import speed

    sys.exit(main())
