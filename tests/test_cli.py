import contextlib
import csv
import io
import json
import re
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovstab.cli import main
from maslovstab.models import builtin

SECH_CONFIG = {
    "n": 1,
    "kind": "pulse",
    "decay_rate": 1.0,
    "potential": {"kind": "expression", "entries": [["-1 + 3/cosh(x/2)**2"]]},
    "q_minus": [[-1.0]],
    "q_plus": [[-1.0]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


class TestBasics:
    def test_models_lists_builtins(self, capsys):
        code, out, _ = run(capsys, "models")
        assert code == 0
        assert out == "models=scalar_sech_pulse,allen_cahn_front,coupled_gradient_demo"

    def test_conjugate_summary(self, capsys):
        code, out, _ = run(
            capsys, "conjugate", "--model", "scalar_sech_pulse",
            "--lambda-star", "1e-3",
        )
        assert code == 0
        assert out == "conjugate_points=1"

    def test_compare_agree_exit_zero(self, capsys):
        code, out, _ = run(capsys, "compare", "--model", "allen_cahn_front")
        assert code == 0
        assert out == "conjugate=0 winding=0 oracle=0 AGREE"

    def test_unknown_model_exit_one(self, capsys):
        code, _, err = run(capsys, "conjugate", "--model", "nope",
                           "--lambda-star", "1e-3")
        assert code == 1
        assert "nope" in err

    def test_unknown_flag_exit_one(self, capsys):
        code, _, _ = run(capsys, "models", "--bogus")
        assert code == 1

    def test_out_of_range_override_exit_one(self, capsys):
        code, _, err = run(capsys, "conjugate", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3", "--rtol", "1.0")
        assert code == 1
        assert "rtol" in err and "range" in err

    @pytest.mark.parametrize("argv", [
        ("prufer", "--lambda-star", "inf"),
        ("conjugate", "--lambda-star", "nan"),
        ("square", "--lambda-star=-inf"),
        ("oracle", "--lambda-star", "nan"),
        ("spectrum", "--truncation", "inf"),
        ("evans", "--contour-radius", "inf"),
        ("compare", "--epsilon-shift", "inf"),
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_input_exit_one(self, capsys, argv):
        command, *rest = argv
        code, out, err = run(capsys, "--json-errors", command,
                             "--model", "scalar_sech_pulse", *rest)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "CliUsageError"
        assert "must be finite" in payload["message"]

    def test_solver_failure_exit_one(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(capsys, "prufer", "--model", "scalar_sech_pulse",
                               "--lambda-star", "1e300")
        assert code == 1
        assert "angle integration failed" in err

    @pytest.mark.parametrize("argv", [
        ("conjugate", "--lambda-star", "1e300"),
        ("square", "--lambda-star", "1e300"),
        ("evans", "--epsilon-shift", "1e300"),
        ("compare", "--epsilon-shift", "1e300"),
        ("oracle", "--lambda-star", "1e300"),
        ("conjugate", "--lambda-star", "1e-3", "--rtol", "1e-300"),
        ("oracle", "--lambda-star", "1e-3", "--grid-step", "1e-300",
         "--truncation", "1e300"),
    ], ids=lambda argv: " ".join(argv))
    def test_extreme_finite_input_exit_one(self, capsys, argv):
        command, *rest = argv
        code, out, err = run(capsys, command, "--model", "scalar_sech_pulse", *rest)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        code, out, err = run(capsys, "--json-errors", command,
                             "--model", "scalar_sech_pulse", *rest)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] in (
            "OptionsError", "ContourError", "SeparationError", "CliUsageError",
            "DiscretizationError",
        )

    @pytest.mark.parametrize("argv", [
        ("scalar_sech_pulse", "--contour-center", "1.25", "0",
         "--contour-radius", "0.5", "--contour-samples", "8"),
        ("allen_cahn_front", "--contour-samples", "11"),
    ], ids=lambda argv: " ".join(argv))
    def test_negative_winding_exit_one(self, capsys, argv):
        # both contours are undersampled and wind -1 and -2 turns
        model, *rest = argv
        code, out, err = run(capsys, "--json-errors", "evans", "--model", model,
                             *rest)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "PhaseStepError"
        assert "negative" in payload["message"]

    @pytest.mark.parametrize("model", ["scalar_sech_pulse", "coupled_gradient_demo"])
    def test_spectrum_omits_essential_spectrum(self, capsys, model):
        # both models have essential spectrum (-inf, -1]; the truncated
        # problem's box eigenvalues below -1 are not reported
        code, out, _ = run(capsys, "spectrum", "--model", model, "--count", "6")
        assert code == 0
        vals = [float(v) for v in out.removeprefix("eigenvalues=").split(",")]
        assert len(vals) == {"scalar_sech_pulse": 3, "coupled_gradient_demo": 4}[model]
        assert min(vals) > -1.0

    def test_json_errors(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({k: v for k, v in SECH_CONFIG.items()
                                   if k != "decay_rate"}))
        code, _, err = run(capsys, "--json-errors", "conjugate",
                           "--config", str(cfg), "--lambda-star", "1e-3")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["field"] == "decay_rate"

    @pytest.mark.parametrize("field, value", [
        ("decay_rate", "fast"),
        ("q_minus", "abc"),
        ("q_minus", None),
        ("n", True),
        pytest.param("potential", {"kind": "samples", "x": [-3.0, -1.0, 1.0, 3.0],
                                   "values": [[[-1.0]], [[np.nan]], [[0.5]], [[-1.0]]]},
                     id="samples-nan-value"),
        pytest.param("potential", {"kind": "samples", "x": [-3.0, -1.0, 1.0, np.inf],
                                   "values": [[[-1.0]], [[0.5]], [[0.5]], [[-1.0]]]},
                     id="samples-infinite-x"),
        pytest.param("potential", {"kind": "samples", "x": [-3.0, np.nan, 1.0, 3.0],
                                   "values": [[[-1.0]], [[0.5]], [[0.5]], [[-1.0]]]},
                     id="samples-nan-x"),
    ])
    def test_bad_config_field_is_one_config_error(self, capsys, tmp_path, field,
                                                  value):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(dict(SECH_CONFIG, **{field: value})))
        code, out, err = run(capsys, "--json-errors", "conjugate",
                             "--config", str(cfg), "--lambda-star", "1e-3")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert json.loads(line)["field"] == field

    @pytest.mark.parametrize("field, content", [
        ("document", "[" * 100_000),
        ("path", None),
    ], ids=["deeply-nested", "directory"])
    def test_unreadable_config_is_one_config_error(self, capsys, tmp_path, field,
                                                   content):
        cfg = tmp_path / "model.json"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_text(content)
        code, out, err = run(capsys, "--json-errors", "conjugate",
                             "--config", str(cfg), "--lambda-star", "1e-3")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["field"] == field

    def test_config_model_runs(self, capsys, tmp_path):
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(SECH_CONFIG))
        code, out, _ = run(capsys, "conjugate", "--config", str(cfg),
                           "--lambda-star", "1e-3")
        assert code == 0
        assert out == "conjugate_points=1"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [
        "y*exp(-x**2)",
        "I*exp(-x**2)",
        "1/(x-x)",
        "zoo*exp(-x**2)",
        "-1 + 0*x + 0*7**10**8",
        "-1 + 0*exp(-x**2)*__import__('pathlib').Path('{probe}').write_text('x')",
    ])
    def test_bad_config_entry_is_one_config_error(self, capsys, tmp_path, entry):
        probe = tmp_path / "probe"
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(dict(SECH_CONFIG, potential={
            "kind": "expression", "entries": [[entry.format(probe=probe)]]})))
        start = time.perf_counter()
        code, out, err = run(capsys, "--json-errors", "conjugate",
                             "--config", str(cfg), "--lambda-star", "1e-3")
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ConfigError"
        assert not probe.exists()

    def test_compare_disagreement_exit_two(self, capsys, monkeypatch):
        from maslovstab import cli as cli_mod
        from maslovstab.flow import SpectralReport

        def fake_compare(model, opts, epsilon_shift, oracle_h):
            return SpectralReport(conjugate_count=1, winding_count=0,
                                  oracle_count=1)

        monkeypatch.setattr(cli_mod.evans_mod, "compare_counts", fake_compare)
        code, out, _ = run(capsys, "compare", "--model", "scalar_sech_pulse")
        assert code == 2
        assert out.endswith("DISAGREE")


class TestArtifacts:
    def test_csv_round_trips_17_digits(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        run(capsys, "prufer", "--model", "scalar_sech_pulse",
            "--lambda-star", "-0.5", "--output", str(out_file))
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "theta"]
        for x_text, theta_text in rows[1:]:
            assert format(float(x_text), ".17g") == x_text
            assert format(float(theta_text), ".17g") == theta_text

    def test_determinism_byte_identical(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            run(capsys, "conjugate", "--model", "scalar_sech_pulse",
                "--lambda-star", "1e-3", "--output", str(out_file))
            files.append(out_file.read_bytes())
        assert files[0] == files[1]

    def test_square_csv_columns(self, capsys, tmp_path):
        out_file = tmp_path / "square.csv"
        code, out, _ = run(capsys, "square", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3", "--output", str(out_file))
        assert code == 0
        assert out.startswith("net_index=0 left=1 top=1")
        with open(out_file) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["edge", "param", "crossing", "direction"]
        edges = [r[0] for r in rows[1:]]
        assert edges == ["left", "top"]
        directions = [int(r[3]) for r in rows[1:]]
        assert directions == [1, -1]

    def test_square_summary_counts_crossings(self, capsys):
        # the demo's double eigenvalue at 0 is one top event of multiplicity 2
        code, out, _ = run(capsys, "square", "--model", "coupled_gradient_demo",
                           "--lambda-star", "-0.5")
        assert (code, out) == (0, "net_index=0 left=3 top=3 right=0 bottom=0")

    def test_compare_json_payload(self, capsys, tmp_path):
        out_file = tmp_path / "compare.json"
        code, _, _ = run(capsys, "compare", "--model", "scalar_sech_pulse",
                         "--output", str(out_file))
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["conjugate"] == payload["winding"] == payload["oracle"] == 1
        assert payload["agree"] is True

    def test_radial_json(self, capsys, tmp_path):
        out_file = tmp_path / "radial.json"
        code, out, _ = run(capsys, "radial", "--d", "3", "--l", "2",
                           "--k-max", "5", "--output", str(out_file))
        assert code == 0
        assert out == "exponents=2,-3"
        payload = json.loads(out_file.read_text())
        assert payload["exponents"] == [2.0, -3.0]
        assert payload["cylinder_spectrum"] == list(range(-5, 6))
        assert abs(payload["fitted_rates"]["unstable"] - 2.0) < 1e-3
        assert abs(payload["fitted_rates"]["stable"] + 3.0) < 1e-3


class TestWorkBudget:
    """Each command computes its answer once and writes the artifact from it."""

    def test_evans_integrates_the_upper_half_once(self, capsys, tmp_path,
                                                   monkeypatch):
        from maslovstab import flow

        sizes = []
        determinant = flow.evans_determinant

        def counting(model, lams, opts, x_match):
            sizes.append(len(lams))
            return determinant(model, lams, opts, x_match)

        monkeypatch.setattr(flow, "evans_determinant", counting)
        code, out, _ = run(capsys, "evans", "--model", "scalar_sech_pulse",
                           "--contour-center", "1.25", "0", "--contour-radius", "0.5",
                           "--contour-samples", "64",
                           "--output", str(tmp_path / "evans.csv"))
        assert (code, out) == (0, "winding=1")
        assert sizes == [64 // 2 + 1]

    def test_top_edge_makes_two_determinant_calls(self, capsys, monkeypatch):
        from maslovstab import flow

        sizes = []
        determinant = flow.evans_determinant

        def counting(model, lams, opts, x_match):
            sizes.append(len(lams))
            return determinant(model, lams, opts, x_match)

        monkeypatch.setattr(flow, "evans_determinant", counting)
        code, out, _ = run(capsys, "square", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3")
        assert (code, out) == (0, "net_index=0 left=1 top=1 right=0 bottom=0")
        # the 129-point sweep, then one batch for the span around 1.25: the
        # upper half of its 32-sample circle and its 33-point real sub-grid
        assert sizes == [129, 32 // 2 + 1 + 33]

    def test_refined_evans_csv_keeps_the_base_samples(self, capsys, tmp_path,
                                                      monkeypatch):
        from maslovstab import flow

        sizes = []
        determinant = flow.evans_determinant

        def counting(model, lams, opts, x_match):
            sizes.append(len(lams))
            return determinant(model, lams, opts, x_match)

        monkeypatch.setattr(flow, "evans_determinant", counting)
        out_file = tmp_path / "evans.csv"
        code, out, _ = run(capsys, "evans", "--model", "scalar_sech_pulse",
                           "--contour-center", "1.25", "0", "--contour-radius", "0.5",
                           "--contour-samples", "12", "--output", str(out_file))
        assert (code, out) == (0, "winding=1")
        # the base samples, then at least one round of refinement midpoints
        assert len(sizes) > 1
        with open(out_file) as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[0] for r in rows] == [
            format(t, ".17g") for t in flow._contour_params(12)[:-1]
        ]

    def test_conjugate_propagates_the_path_once(self, capsys, tmp_path,
                                                monkeypatch):
        from maslovstab import flow

        starts = []
        propagate = flow.propagate

        def counting(model, lams, frames, xs, opts):
            starts.append((float(xs[0]), float(xs[-1])))
            return propagate(model, lams, frames, xs, opts)

        monkeypatch.setattr(flow, "propagate", counting)
        code, out, _ = run(capsys, "conjugate", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3",
                           "--output", str(tmp_path / "conjugate.csv"))
        assert (code, out) == (0, "conjugate_points=1")
        L = flow.FlowOptions().resolve(builtin("scalar_sech_pulse")).truncation
        assert [span for span in starts if span[0] == -L] == [(-L, L)]

    def test_conjugate_checks_the_drift_in_one_call(self, capsys, tmp_path,
                                                    monkeypatch):
        from maslovstab import symplectic

        shapes = []
        check = symplectic.check_lagrangian

        def recording(frames, *args, **kwargs):
            shapes.append(np.shape(frames))
            return check(frames, *args, **kwargs)

        monkeypatch.setattr(symplectic, "check_lagrangian", recording)
        out_file = tmp_path / "conjugate.csv"
        code, out, _ = run(capsys, "conjugate", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3", "--output", str(out_file))
        assert (code, out) == (0, "conjugate_points=1")
        with open(out_file) as fh:
            rows = len(list(csv.reader(fh))) - 1
        assert shapes == [(rows, 2, 1)]

    def test_oracle_discretizes_once(self, capsys, tmp_path, monkeypatch):
        from maslovstab import oracle

        calls = []
        discretize = oracle.discretize

        def counting(*args):
            calls.append(args)
            return discretize(*args)

        monkeypatch.setattr(oracle, "discretize", counting)
        code, out, _ = run(capsys, "oracle", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3",
                           "--output", str(tmp_path / "oracle.csv"))
        assert (code, out) == (0, "count=1")
        assert len(calls) == 1


def _finite_floats(lo, hi):
    """Mostly plausible values in [lo, hi], sometimes any finite float."""
    return st.one_of(st.floats(lo, hi),
                     st.floats(allow_nan=False, allow_infinity=False))


class TestOracleArgvProperty:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        model=st.sampled_from(["scalar_sech_pulse", "allen_cahn_front",
                               "coupled_gradient_demo"]),
        lambda_star=_finite_floats(-1.0, 2.0),
        grid_step=st.none() | _finite_floats(0.01, 0.05),
        truncation=st.none() | _finite_floats(10.0, 60.0),
        count=st.none() | st.integers(1, 50) | st.integers(),
        output=st.sampled_from([None, "csv", "json"]),
    )
    def test_exit_code_and_streams(self, model, lambda_star, grid_step,
                                   truncation, count, output):
        argv = ["--json-errors", "oracle", "--model", model,
                f"--lambda-star={lambda_star!r}"]
        for flag, value in (("--grid-step", grid_step),
                            ("--truncation", truncation), ("--count", count)):
            if value is not None:
                argv.append(f"{flag}={value!r}")
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            if output is not None:
                argv += ["--format", output, "--output", f"{tmp}/oracle.{output}"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1)
        if code == 0:
            assert re.fullmatch(r"count=\d+\n", out.getvalue())
            assert err.getvalue() == ""
        else:
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert set(json.loads(line)) >= {"error", "message"}


class TestGolden:
    def test_models_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "models.json"
        run(capsys, "models", "--output", str(out_file), "--format", "json")
        golden(out_file, "models.json")

    def test_conjugate_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "conjugate.csv"
        run(capsys, "conjugate", "--model", "scalar_sech_pulse",
            "--lambda-star", "1e-3", "--output", str(out_file))
        golden(out_file, "conjugate_sech.csv")

    def test_square_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "square.csv"
        run(capsys, "square", "--model", "scalar_sech_pulse",
            "--lambda-star", "1e-3", "--output", str(out_file))
        golden(out_file, "square_sech.csv")

    def test_compare_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "compare.json"
        run(capsys, "compare", "--model", "allen_cahn_front",
            "--output", str(out_file))
        golden(out_file, "compare_front.json")

    def test_spectrum_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "spectrum.csv"
        run(capsys, "spectrum", "--model", "scalar_sech_pulse", "--count", "3",
            "--output", str(out_file))
        golden(out_file, "spectrum_sech.csv")

    def test_oracle_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "oracle.csv"
        run(capsys, "oracle", "--model", "scalar_sech_pulse",
            "--lambda-star", "1e-3", "--output", str(out_file))
        golden(out_file, "oracle_sech.csv")

    def test_radial_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "radial.json"
        run(capsys, "radial", "--d", "3", "--l", "2", "--output", str(out_file))
        golden(out_file, "radial_d3_l2.json")

    def test_evans_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "evans.csv"
        run(capsys, "evans", "--model", "scalar_sech_pulse",
            "--contour-center", "1.25", "0", "--contour-radius", "0.5",
            "--contour-samples", "64", "--output", str(out_file))
        golden(out_file, "evans_sech.csv")

    def test_prufer_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "prufer.csv"
        run(capsys, "prufer", "--model", "allen_cahn_front",
            "--lambda-star", "1e-3", "--output", str(out_file))
        golden(out_file, "prufer_front.csv")
