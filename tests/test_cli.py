import argparse
import contextlib
import csv
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose
from hypothesis import given, settings
from hypothesis import strategies as st

from maslovstab.cli import main
from maslovstab.models import builtin

SRC_DIR = pathlib.Path(__file__).resolve().parents[1] / "src"

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


def _nan_potential_error(tmp_path, term, kind, command):
    """The one JSON error line of a run on the sech pulse plus ``term``."""
    entry = f"-1 + 3*sech(x/2)**2 + {term}"
    return _config_error(tmp_path, dict(
        SECH_CONFIG, kind=kind, potential={"kind": "expression", "entries": [[entry]]}),
        command)


def _config_error(tmp_path, config, command):
    """The one JSON error line of a run on ``config`` at L = 25.

    Runs in a subprocess, so a hanging integration runs into the timeout
    instead of stalling the suite.
    """
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "maslovstab.cli", "--json-errors", command[0],
         "--config", str(cfg), "--truncation", "25", *command[1:]],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    return json.loads(line)


# every command that samples Q on a grid of [-L, L]
_SAMPLING_COMMANDS = [
    ["conjugate", "--lambda-star", "1e-3"], ["square", "--lambda-star", "1e-3"],
    ["compare"], ["evans"], ["oracle", "--lambda-star", "1e-3"],
    ["spectrum", "--count", "2"],
]


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
        ("evans", "--truncation", "1e300"),
        ("spectrum", "--truncation", "1e300"),
        ("evans", "--contour-center", "1.25", "1e300", "--contour-radius", "0.5"),
        ("evans", "--contour-center", "1e300", "0",
         "--contour-radius", "1.7976931348623157e308"),
        ("conjugate", "--lambda-star", "1e300"),
        ("square", "--lambda-star", "1e300"),
        ("evans", "--epsilon-shift", "1e300"),
        ("compare", "--epsilon-shift", "1e300"),
        ("oracle", "--lambda-star", "1e300"),
        ("conjugate", "--lambda-star", "1e-3", "--rtol", "1e-300"),
        ("oracle", "--lambda-star", "1e-3", "--grid-step", "1e-300",
         "--truncation", "1e300"),
        # circles below the float spacing of their centre collapse
        ("evans", "--contour-center", "1.25", "0", "--contour-radius", "1e-20"),
        ("evans", "--contour-center", "1.25", "0", "--contour-radius", "5e-324"),
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
            "DiscretizationError", "SolverError",
        )

    def test_flow_options_hold_only_what_the_cli_sets(self):
        from maslovstab import cli, flow

        # no numerical knob sits beside the two values a command can set
        fields = [f.name for f in dataclasses.fields(flow.FlowOptions)]
        assert fields == ["truncation", "rtol"]
        args = argparse.Namespace(truncation=12.0, rtol=1e-9)
        assert cli._flow_options(args) == flow.FlowOptions(truncation=12.0, rtol=1e-9)

    @pytest.mark.parametrize("argv", [
        ("scalar_sech_pulse", "--contour-center", "1.25", "0",
         "--contour-radius", "0.5", "--contour-samples", "8"),
        ("allen_cahn_front", "--contour-samples", "11"),
    ], ids=lambda argv: " ".join(argv))
    def test_negative_winding_exit_one(self, capsys, monkeypatch, argv):
        # E = 1 / (lambda - 1.25) winds -1 times around 1.25, which lies
        # inside both contours: no Evans function does, so the guard reads
        # it as an undersampled contour
        from maslovstab import flow

        monkeypatch.setattr(flow, "evans_determinant",
                            lambda model, lams, opts, xs: (1.0 / (lams - 1.25), None))
        model, *rest = argv
        code, out, err = run(capsys, "--json-errors", "evans", "--model", model, *rest)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "PhaseStepError"
        assert "winding -1 is negative" in payload["message"]

    # (contour, m) pairs that gave a wrong winding with exit 0 while the
    # Evans values carried the phase of e^{(mu_- + mu_+) L}
    @pytest.mark.parametrize("argv, winding", [
        *[(("scalar_sech_pulse", m), 1) for m in (18, 30, 31)],
        *[(("coupled_gradient_demo", m), 1)
          for m in (13, 21, 25, 31, 47, 54, 57, 58, 59, 60)],
        (("scalar_sech_pulse", 10, "--contour-center", "0.6", "0",
          "--contour-radius", "0.4"), 0),
    ], ids=lambda v: " ".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_coarse_contour_is_right_or_exits_one(self, capsys, argv, winding):
        model, samples, *rest = argv
        code, out, err = run(capsys, "--json-errors", "evans", "--model", model,
                             "--contour-samples", str(samples), *rest)
        if code == 0:
            assert out == f"winding={winding}"
        else:
            assert code == 1 and out == ""
            (line,) = err.splitlines()
            assert json.loads(line)["error"] == "PhaseStepError"

    @pytest.mark.parametrize("model", ["scalar_sech_pulse", "coupled_gradient_demo"])
    def test_spectrum_omits_essential_spectrum(self, capsys, model):
        # both models have essential spectrum (-inf, -1]; the truncated
        # problem's box eigenvalues below -1 are not reported
        code, out, _ = run(capsys, "spectrum", "--model", model, "--count", "6")
        assert code == 0
        vals = [float(v) for v in out.removeprefix("eigenvalues=").split(",")]
        assert len(vals) == {"scalar_sech_pulse": 3, "coupled_gradient_demo": 4}[model]
        assert min(vals) > -1.0

    def test_spectrum_count_stops_at_the_edge(self, capsys, monkeypatch):
        # sech has three eigenvalues above its essential spectrum, so a
        # --count of 10000 asks the Prufer route for three
        from maslovstab import prufer

        asked = []
        find_eigenvalues = prufer.find_eigenvalues

        def recording(prob, how_many):
            asked.append(how_many)
            return find_eigenvalues(prob, how_many)

        monkeypatch.setattr(prufer, "find_eigenvalues", recording)
        code, out, _ = run(capsys, "spectrum", "--model", "scalar_sech_pulse",
                           "--count", "10000")
        assert code == 0 and asked == [3]
        vals = [float(v) for v in out.removeprefix("eigenvalues=").split(",")]
        assert_allclose(vals, [1.25, 0.0, -0.75], atol=1e-6)

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

    @pytest.mark.parametrize("config, error, field, phrase", [
        pytest.param(dict(SECH_CONFIG, potential={
            "kind": "samples", "x": [-3.0, 1.0, 1.0, 3.0],
            "values": [[[-1.0]], [[0.5]], [[0.5]], [[-1.0]]]}),
            "ConfigError", "potential", "strictly increasing", id="samples-x-repeated"),
        pytest.param(dict(SECH_CONFIG, potential={
            "kind": "samples", "x": [-3.0, -1.0, 1.0, 3.0], "values": [-1.0, 0.5, 0.5, -1.0]}),
            "ConfigError", "potential", "shape (4, 1, 1), got (4,)", id="samples-values-shape"),
        pytest.param(dict(SECH_CONFIG, q_minus=[[-1.0, 0.0], [0.0, -1.0]]),
                     "ConfigError", "q_minus", "must have shape (1, 1), got (2, 2)",
                     id="q-minus-shape"),
        pytest.param(dict(SECH_CONFIG, n=2, q_minus=[[-1.0, 0.5], [0.0, -1.0]],
                          q_plus=[[-1.0, 0.0], [0.0, -1.0]]),
                     "ConfigError", "q_minus", "symmetry violated", id="q-minus-asymmetric"),
        pytest.param([SECH_CONFIG], "ConfigError", "document", "JSON object",
                     id="document-a-list"),
        pytest.param(dict(SECH_CONFIG, kind="wave"), "ConfigError", "kind", "one of",
                     id="kind-unknown"),
        pytest.param(dict(SECH_CONFIG, potential={"entries": [["-1"]]}),
                     "ConfigError", "potential", "with a 'kind'", id="potential-no-kind"),
        pytest.param(dict(SECH_CONFIG, potential={"kind": "expression",
                                                  "entries": [["-1", "0"]]}),
                     "ConfigError", "potential", "a table of shape (1, 1)",
                     id="entries-shape"),
        pytest.param(dict(SECH_CONFIG, potential={"kind": "spline"}),
                     "ConfigError", "potential", "'expression' or 'samples'",
                     id="potential-kind-unknown"),
        pytest.param(dict(SECH_CONFIG, profile={"kind": "expression",
                                                "entries": ["sech(x)", "0"]}),
                     "ConfigError", "profile", "entries of shape (1,)", id="profile-length"),
        pytest.param('{"n": 1,', "ConfigError", "document", "invalid JSON",
                     id="invalid-json"),
        pytest.param(None, "CliUsageError", None, "--model or --config",
                     id="no-model-or-config"),
    ])
    def test_config_and_usage_errors_name_their_field(self, capsys, tmp_path, config,
                                                      error, field, phrase):
        argv = ["--json-errors", "conjugate", "--lambda-star", "1e-3"]
        if config is not None:
            cfg = tmp_path / "model.json"
            cfg.write_text(config if isinstance(config, str) else json.dumps(config))
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert (payload["error"], payload.get("field")) == (error, field)
        assert phrase in payload["message"]

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

    def test_potential_not_finite_on_the_grid_exit_one(self, capsys, tmp_path):
        # finite at every validation sample, NaN wherever cos(50 pi x) < 0
        entry = "-1 + 2*sech(x)**2 + 0*log(cos(x*157.07963267948966))"
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(dict(
            SECH_CONFIG, potential={"kind": "expression", "entries": [[entry]]})))
        code, out, err = run(capsys, "--json-errors", "oracle",
                             "--config", str(cfg), "--lambda-star", "0.5")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ModelValidationError"
        assert "potential is not finite at x = " in payload["message"]

    @pytest.mark.parametrize("truncation, step", [
        ("1e-300", "1e-302"), ("1e-158", "1e-160"),
    ], ids=["h2-underflows", "inverse-overflows"])
    def test_step_whose_inverse_square_is_not_finite_exit_one(self, capsys, tmp_path,
                                                              truncation, step):
        # h^2 = 0 ended in a ZeroDivisionError traceback, 1/h^2 = inf in a
        # SeparationError; the step itself is refused
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps({
            "n": 1, "kind": "custom", "decay_rate": 1e308,
            "potential": {"kind": "expression", "entries": [["-1"]]},
            "q_minus": [[-1.0]], "q_plus": [[-1.0]]}))
        code, out, err = run(capsys, "--json-errors", "oracle", "--config", str(cfg),
                             "--truncation", truncation, "--grid-step", step,
                             "--lambda-star", "0.5")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "DiscretizationError",
            "message": f"step {float(step)!r} leaves 1/h^2 outside the finite floats"}

    @pytest.mark.parametrize("shift", ["+ 25", "- 25"])
    @pytest.mark.parametrize("command", [
        ["conjugate", "--lambda-star", "1e-3"], ["evans"], ["compare"],
        ["square", "--lambda-star", "1e-3"],
        ["evans", "--contour-center", "1.25", "0", "--contour-radius", "0.5"],
    ], ids=["conjugate", "evans", "compare", "square", "evans-contour"])
    def test_potential_not_finite_where_a_path_starts_exit_one(self, tmp_path, shift,
                                                               command):
        # NaN at x = -L or x = +L, finite at every validation sample; the
        # error names that x whether a path starts or ends there.  An
        # explicit contour samples no grid: only the Evans run reads Q at
        # +L, where U_+ starts, reflected to t = -L
        error = _nan_potential_error(tmp_path, f"0*log(abs(x {shift}))", "pulse",
                                     command)
        assert error["error"] == "ModelValidationError"
        x = -float(shift.replace(" ", ""))
        assert f"potential is not finite at x = {x!r}" in error["message"]

    @pytest.mark.parametrize("command", [
        ["conjugate", "--lambda-star", "1e-3"], ["compare"],
        ["square", "--lambda-star", "1e-3"],
    ], ids=["conjugate", "compare", "square"])
    def test_potential_not_finite_at_a_path_sample_exit_one(self, tmp_path, command):
        # x = 3.3 is a sample of the conjugate-point path at L = 25; the
        # integration steps over it, the angle count does not
        error = _nan_potential_error(tmp_path, "0*log(abs(x - 3.3))", "custom",
                                     command)
        assert error["error"] == "ModelValidationError"
        assert "potential is not finite at x = 3.3" in error["message"]

    @pytest.mark.parametrize("command", _SAMPLING_COMMANDS,
                             ids=[c[0] for c in _SAMPLING_COMMANDS])
    def test_potential_not_finite_outside_the_validation_window_exit_one(
            self, tmp_path, command):
        # x = 22.5 lies in (20, L] and on the lambda_inf, path-step, Prufer
        # peak, FD and conjugate-path grids: every command that samples Q
        # there refuses it with the one message
        error = _nan_potential_error(tmp_path, "0*log(abs(x - 22.5))", "custom",
                                     command)
        assert error == {"error": "ModelValidationError",
                         "message": "potential is not finite at x = 22.5"}

    @pytest.mark.parametrize("command", [
        ["square", "--lambda-star", "1e-3"], ["compare"], ["evans"],
    ], ids=["square", "compare", "evans"])
    def test_potential_not_finite_at_a_ceiling_sample_exit_one(self, tmp_path,
                                                               command):
        # a sample of lambda_max_bound's 4001-point grid and of no other one
        x = 0.08750000000000213
        error = _nan_potential_error(tmp_path, f"0*log(abs(x - {x!r}))", "custom",
                                     command)
        assert error == {"error": "ModelValidationError",
                         "message": f"potential is not finite at x = {x!r}"}

    def test_potential_not_finite_at_a_peak_sample_names_x(self, tmp_path):
        # a sample of prufer._q_peak's 1001 points at L = 25: the search
        # names it instead of failing on a step size
        x = 0.05000000000000071
        error = _nan_potential_error(tmp_path, f"0*log(abs(x - {x!r}))", "custom",
                                     ["spectrum", "--count", "2"])
        assert error == {"error": "ModelValidationError",
                         "message": f"potential is not finite at x = {x!r}"}

    @pytest.mark.parametrize("command", [["oracle", "--lambda-star", "1e-3"], ["evans"]],
                             ids=["oracle", "evans"])
    def test_potential_asymmetric_outside_the_validation_window_exit_one(
            self, tmp_path, command):
        # symmetric to 1e-12 on [-20, 20]; the (0, 1) entry peaks at x = 22.5
        config = {
            "n": 2, "kind": "custom", "decay_rate": 1.0,
            "potential": {"kind": "expression", "entries": [
                ["-1 + 3*sech(x/2)**2", "exp(-100*(x - 22.5)**2)"],
                ["0", "-2 + 3*sech(x/2)**2"],
            ]},
            "q_minus": [[-1.0, 0.0], [0.0, -2.0]],
            "q_plus": [[-1.0, 0.0], [0.0, -2.0]],
        }
        error = _config_error(tmp_path, config, command)
        assert error["error"] == "ModelValidationError"
        head, x = error["message"].split(" = ")
        assert head == "potential is asymmetric at x" and 21.5 < float(x) < 23.5

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
        from maslovstab.evans import SpectralReport

        def fake_compare(model, opts, epsilon_shift, oracle_h):
            return SpectralReport(conjugate_count=1, winding_count=0,
                                  oracle_count=1, epsilon_shift=epsilon_shift,
                                  lambda_inf=3.0, events=())

        monkeypatch.setattr(cli_mod.evans_mod, "compare_counts", fake_compare)
        code, out, _ = run(capsys, "compare", "--model", "scalar_sech_pulse")
        assert code == 2
        assert out.endswith("DISAGREE")

    def test_pulse_without_conjugate_points_exit_one(self, capsys, monkeypatch):
        from maslovstab import flow

        monkeypatch.setattr(flow, "detect_conjugate_points", lambda *args: ())
        code, out, err = run(capsys, "--json-errors", "compare",
                             "--model", "scalar_sech_pulse")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "InconsistencyError"
        assert "epsilon_shift = 0.001" in payload["message"]

    def test_angle_count_mismatch_exit_one(self, capsys, monkeypatch):
        from maslovstab import flow

        angle_count = flow._angle_count
        monkeypatch.setattr(flow, "_angle_count", lambda *args: angle_count(*args) + 1.0)
        code, out, err = run(capsys, "--json-errors", "conjugate",
                             "--model", "scalar_sech_pulse", "--lambda-star", "1e-3")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "CountMismatchError"
        assert re.search(r"angle count 2\.0+\d* disagrees with the 1 signed "
                         r"w-eigenvalue crossings at lambda = 0\.001", payload["message"])

    def test_evans_zero_on_a_contour_sample_exit_one(self, capsys, monkeypatch):
        from maslovstab import flow

        determinant = flow.evans_determinant

        def vanishing(model, lams, opts, xs):
            values, frames = determinant(model, lams, opts, xs)
            return np.where(np.arange(len(values)) == 3, 0.0, values), frames

        monkeypatch.setattr(flow, "evans_determinant", vanishing)
        code, out, err = run(capsys, "--json-errors", "evans", "--model",
                             "scalar_sech_pulse", "--contour-samples", "64")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ContourError"
        assert "within the zero margin of an Evans zero (min |E| = 0.000e+00" in (
            payload["message"])

    def test_failed_segment_with_finite_samples_exit_one(self, capsys, monkeypatch):
        # every Q sample of the failed step is finite, so the failure is the
        # solver's own and is reported as one
        from maslovstab import flow

        solve_ivp = flow.solve_ivp

        def failing(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            assert np.all(np.isfinite(sol.nodes))
            return dataclasses.replace(sol, success=False, message="step rejected")

        monkeypatch.setattr(flow, "solve_ivp", failing)
        code, out, err = run(capsys, "--json-errors", "conjugate",
                             "--model", "scalar_sech_pulse", "--lambda-star", "1e-3")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "SolverError"
        assert re.fullmatch(r"frame evolution failed on \[\S+, \S+\]: step rejected",
                            payload["message"])

    def test_slow_decay_n2_compare_fits_both_grids(self, capsys, tmp_path):
        # at decay rate 0.3 the h/2 oracle grid holds 27,506 unknowns
        cfg = tmp_path / "model.json"
        entries = [["-1 + 3*sech(0.3*x)**2", "0.2*sech(0.3*x)"],
                   ["0.2*sech(0.3*x)", "-0.8 + 2*sech(0.3*x)**2"]]
        cfg.write_text(json.dumps({
            "n": 2, "kind": "custom", "decay_rate": 0.3,
            "potential": {"kind": "expression", "entries": entries},
            "q_minus": [[-1.0, 0.0], [0.0, -0.8]], "q_plus": [[-1.0, 0.0], [0.0, -0.8]],
        }))
        code, out, _ = run(capsys, "compare", "--config", str(cfg))
        assert (code, out) == (0, "conjugate=5 winding=5 oracle=5 AGREE")

    def test_spectrum_above_the_ceiling_exit_one(self, capsys, monkeypatch):
        from maslovstab import flow

        monkeypatch.setattr(flow, "lambda_ceiling", lambda *args: 1.0)
        code, out, err = run(capsys, "--json-errors", "square",
                             "--model", "scalar_sech_pulse", "--lambda-star", "1e-3")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "InconsistencyError"
        assert "lambda_inf = 1.0" in payload["message"] and "at x = " in payload["message"]

    @pytest.mark.parametrize("radius", ["1e-4", "1e-5", "1e-6", "1e-7"])
    def test_small_contour_around_an_eigenvalue(self, capsys, radius):
        code, out, _ = run(capsys, "evans", "--model", "scalar_sech_pulse",
                           "--contour-center", "1.25", "0", "--contour-radius", radius)
        assert (code, out) == (0, "winding=1")

    # these printed winding=0: the computed zero of E sits off 1.25 by more
    # than the radius, and |E| barely varies around so small a circle
    @pytest.mark.parametrize("radius", ["3e-10", "1e-10", "1e-12", "1e-14", "1e-15"])
    def test_contour_below_the_truncation_floor_exit_one(self, capsys, radius):
        code, out, err = run(capsys, "--json-errors", "evans", "--model",
                             "scalar_sech_pulse", "--contour-center", "1.25", "0",
                             "--contour-radius", radius)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ContourError"
        assert "TRUNCATION_ADEQUACY * max(1, |center|) = 1.250e-08" in payload["message"]

    # these printed winding=0 and winding=1 with exit 0: each arc crosses
    # (-inf, -1] between two samples, and the discs hold -0.75 and {0, -0.75}
    @pytest.mark.parametrize("center, radius", [
        (("-1.0262", "0.0391"), "0.7158"), (("-0.9413", "0.6258"), "1.2427"),
    ])
    def test_contour_crossing_the_essential_spectrum_exit_one(self, capsys, center,
                                                              radius):
        code, out, err = run(capsys, "--json-errors", "evans", "--model",
                             "scalar_sech_pulse", "--contour-center", *center,
                             "--contour-radius", radius)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ContourError"
        assert "(-inf, -1]" in payload["message"]

    # either half alone wound the default contour and printed winding=1
    @pytest.mark.parametrize("half, missing", [
        (("--contour-center", "1.25", "0"), "--contour-radius"),
        (("--contour-radius", "0.5"), "--contour-center"),
    ], ids=["center", "radius"])
    def test_half_given_contour_exit_one(self, capsys, half, missing):
        code, out, err = run(capsys, "--json-errors", "evans", "--model",
                             "scalar_sech_pulse", *half)
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "CliUsageError"
        assert f"needs {missing}" in payload["message"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_oracle_output_omits_essential_spectrum(self, capsys, tmp_path, fmt):
        # the sech box modes -1.0085 and -1.0339 lie below the edge -1; they
        # were written as eigenvalues, while the count was already right
        out_file = tmp_path / f"oracle.{fmt}"
        code, out, _ = run(capsys, "oracle", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3", "--format", fmt,
                           "--output", str(out_file))
        assert (code, out) == (0, "count=1")
        if fmt == "json":
            vals = json.loads(out_file.read_text())["top_eigenvalues"]
        else:
            with open(out_file) as fh:
                vals = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert len(vals) == 3 and min(vals) > -1.0

    def test_radial_double_root_prints_no_negative_zero(self, capsys):
        code, out, _ = run(capsys, "radial", "--d", "2", "--l", "0")
        assert code == 0
        assert out == "exponents=0,0"


    @pytest.mark.parametrize("d, l", [(2, 0), (2, 35), (3, 35), (300, 0), (300, 35)])
    def test_radial_range_corners_fit(self, capsys, d, l):
        code, out, err = run(capsys, "radial", "--d", str(d), "--l", str(l))
        assert (code, err) == (0, "")
        assert out == f"exponents={l},{-(l + d - 2)}"

    @pytest.mark.parametrize("d, l", [(1, 0), (301, 0), (2, -1), (300, 36)])
    def test_radial_past_the_range_is_a_usage_error(self, capsys, d, l):
        code, out, err = run(capsys, "--json-errors", "radial", "--d", str(d),
                             "--l", str(l))
        assert (code, out) == (1, "")
        payload = json.loads(err)
        assert payload["error"] == "CliUsageError"
        assert "outside the admissible range" in payload["message"]

class TestColdStart:
    # each script runs in a fresh interpreter, as every maslov-stab
    # invocation starts one
    @staticmethod
    def _fresh(script):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_import_and_runs_load_no_scipy(self, tmp_path):
        # conjugate refines its crossing with the Brent root finder, and a
        # square on sampled Q builds the spline in the package
        xs = np.linspace(-24.0, 24.0, 193)
        cfg = tmp_path / "sampled.json"
        cfg.write_text(json.dumps(dict(SECH_CONFIG, potential={
            "kind": "samples", "x": xs.tolist(),
            "values": (-1.0 + 3.0 / np.cosh(xs / 2) ** 2)[:, None, None].tolist()})))
        script = f"""
import sys
def scipy_modules():
    print(sorted(name for name in sys.modules if name.startswith("scipy")))
import maslovstab.cli
scipy_modules()
import maslovstab.flow as flow
from maslovstab.cli import main
brentq, calls = flow.brentq, []
def counted(*args, **kwargs):
    calls.append(1)
    return brentq(*args, **kwargs)
flow.brentq = counted
assert main(["conjugate", "--model", "scalar_sech_pulse", "--lambda-star", "1e-3"]) == 0
assert calls, "the run found no crossing to refine"
scipy_modules()
assert main(["square", "--config", {str(cfg)!r}, "--lambda-star", "1e-3"]) == 0
scipy_modules()
"""
        assert self._fresh(script) == [
            "[]", "conjugate_points=1", "[]",
            "net_index=0 left=1 top=1 right=0 bottom=0", "[]"]

    def test_spectrum_loads_scipy_linalg_at_its_band_solve(self, capsys):
        argv = ["spectrum", "--model", "coupled_gradient_demo", "--count", "4"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        script = f"""
import sys
from maslovstab.cli import main
print("scipy.linalg" in sys.modules)
assert main({argv!r}) == 0
print("scipy.linalg" in sys.modules)
"""
        assert self._fresh(script) == ["False", out, "True"]


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

    def test_conjugate_csv_flags_one_row_per_event(self, capsys, tmp_path):
        # strong potential: the sample step (0.032) is a third of SAMPLE_DX,
        # and each event flags only the sample nearest to it
        cfg = tmp_path / "model.json"
        cfg.write_text(json.dumps(dict(
            SECH_CONFIG, kind="custom",
            potential={"kind": "expression", "entries": [["-1 + 12*sech(x)**2"]]})))
        out_file = tmp_path / "conjugate.csv"
        code, out, _ = run(capsys, "conjugate", "--config", str(cfg),
                           "--lambda-star", "1e-3", "--output", str(out_file))
        assert (code, out) == (0, "conjugate_points=2")
        with open(out_file) as fh:
            flagged = [r for r in list(csv.reader(fh))[1:] if r[2] == "1"]
        assert [r[3] for r in flagged] == ["1", "1"]
        xs = [float(r[0]) for r in flagged]
        assert xs[0] < 0 < xs[1]

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

    @staticmethod
    def _csv_and_json(capsys, tmp_path, *argv):
        """The CSV rows (header dropped) and the JSON payload of two runs of
        argv that differ only in --format; both print the same summary."""
        outs = []
        for fmt in ("csv", "json"):
            out_file = tmp_path / f"artifact.{fmt}"
            code, out, _ = run(capsys, *argv, "--format", fmt, "--output", str(out_file))
            assert code == 0
            outs.append((out, out_file.read_text()))
        (summary, table), (json_summary, payload) = outs
        assert summary == json_summary
        return list(csv.reader(io.StringIO(table)))[1:], json.loads(payload)

    def test_spectrum_json_holds_the_csv_eigenvalues(self, capsys, tmp_path):
        rows, payload = self._csv_and_json(capsys, tmp_path, "spectrum",
                                           "--model", "scalar_sech_pulse")
        assert payload["method"] == "prufer"
        assert payload["eigenvalues"] == [float(r[1]) for r in rows]
        assert [int(r[0]) for r in rows] == [0, 1, 2]

    def test_conjugate_json_holds_the_csv_curve_and_events(self, capsys, tmp_path):
        rows, payload = self._csv_and_json(capsys, tmp_path, "conjugate",
                                           "--model", "scalar_sech_pulse",
                                           "--lambda-star", "1e-3")
        assert payload["lambda_star"] == 1e-3
        assert payload["curve"] == [[float(r[0]), float(r[1])] for r in rows]
        flagged = [r for r in rows if r[2] == "1"]
        events = payload["events"]
        assert [e["direction"] for e in events] == [int(r[3]) for r in flagged]
        assert [e["multiplicity"] for e in events] == [1]
        # each event flags the CSV sample nearest to it
        xs = np.array([float(r[0]) for r in rows])
        assert [xs[np.argmin(np.abs(xs - e["param"]))] for e in events] == [
            float(r[0]) for r in flagged]

    def test_square_json_holds_the_csv_edges(self, capsys, tmp_path):
        rows, payload = self._csv_and_json(capsys, tmp_path, "square",
                                           "--model", "coupled_gradient_demo",
                                           "--lambda-star", "-0.5")
        edges = payload["edges"]
        assert list(edges) == ["bottom", "left", "right", "top"]
        assert sorted([edge, e["param"], e["multiplicity"], e["direction"]]
                      for edge, events in edges.items() for e in events) == sorted(
            [r[0], float(r[1]), int(r[2]), int(r[3])] for r in rows)
        assert payload["net_index"] == 0 and {r[0] for r in rows} == {"left", "top"}

    def test_evans_json_holds_the_csv_contour(self, capsys, tmp_path):
        rows, payload = self._csv_and_json(
            capsys, tmp_path, "evans", "--model", "scalar_sech_pulse",
            "--contour-center", "1.25", "0", "--contour-radius", "0.5",
            "--contour-samples", "64")
        assert payload["winding"] == 1
        contour = payload["contour"]
        assert (contour["center"], contour["radius"], contour["samples"]) == (
            [1.25, 0.0], 0.5, len(rows))
        ts, res, ims = (np.array([float(r[i]) for r in rows]) for i in range(3))
        points = complex(*contour["center"]) + contour["radius"] * np.exp(2j * np.pi * ts)
        assert_allclose(res + 1j * ims, points, rtol=0.0, atol=1e-15)

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

        def counting(model, lams, opts, xs):
            sizes.append(len(lams))
            return determinant(model, lams, opts, xs)

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

        def counting(model, lams, opts, xs):
            sizes.append(len(lams))
            return determinant(model, lams, opts, xs)

        monkeypatch.setattr(flow, "evans_determinant", counting)
        code, out, _ = run(capsys, "square", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3")
        assert (code, out) == (0, "net_index=0 left=1 top=1 right=0 bottom=0")
        # the 129-point sweep, then one batch for the span around 1.25: the
        # upper half of its 32-sample circle and its 33-point real sub-grid
        assert sizes == [129, 32 // 2 + 1 + 33]

    def test_square_samples_only_the_left_edge(self, capsys, monkeypatch):
        from maslovstab import flow

        detections, paths = [], []
        detect, path = flow.detect_conjugate_points, flow._unstable_path

        def detecting(model, lambda_star, *args):
            detections.append(lambda_star)
            return detect(model, lambda_star, *args)

        def sampling(model, lambda_, opts):
            paths.append(lambda_)
            return path(model, lambda_, opts)

        monkeypatch.setattr(flow, "detect_conjugate_points", detecting)
        monkeypatch.setattr(flow, "_unstable_path", sampling)
        code, out, _ = run(capsys, "square", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3")
        assert (code, out) == (0, "net_index=0 left=1 top=1 right=0 bottom=0")
        # the right edge at lambda_inf is certified on the top edge's frames
        assert detections == [1e-3] and paths == [1e-3]

    def test_refined_evans_csv_keeps_the_base_samples(self, capsys, tmp_path,
                                                      monkeypatch):
        from maslovstab import flow

        sizes = []
        determinant = flow.evans_determinant

        def counting(model, lams, opts, xs):
            sizes.append(len(lams))
            return determinant(model, lams, opts, xs)

        monkeypatch.setattr(flow, "evans_determinant", counting)
        out_file = tmp_path / "evans.csv"
        code, out, _ = run(capsys, "evans", "--model", "scalar_sech_pulse",
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
        from maslovstab import flow, symplectic

        paths, shapes = [], []
        unstable_path = flow._unstable_path
        reduction = symplectic.unitary_reduction

        def sampling(model, lambda_, opts):
            paths.append(lambda_)
            return unstable_path(model, lambda_, opts)

        def recording(frames, *args, **kwargs):
            shapes.append(np.shape(frames))
            return reduction(frames, *args, **kwargs)

        monkeypatch.setattr(flow, "_unstable_path", sampling)
        monkeypatch.setattr(symplectic, "unitary_reduction", recording)
        out_file = tmp_path / "conjugate.csv"
        code, out, _ = run(capsys, "conjugate", "--model", "scalar_sech_pulse",
                           "--lambda-star", "1e-3", "--output", str(out_file))
        assert (code, out) == (0, "conjugate_points=1")
        with open(out_file) as fh:
            rows = len(list(csv.reader(fh))) - 1
        # the unitarity check of the phase count is the path's one
        # Lagrangian check; the CSV writes the same frames
        assert paths == [1e-3]
        assert shapes.count((rows, 2, 1)) == 1

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


EXTREMES = [1e300, -1e300, 5e-324, 1.7976931348623157e308]
MODELS = st.sampled_from(["scalar_sech_pulse", "allen_cahn_front",
                          "coupled_gradient_demo"])


def _plausible_or_extreme(lo, hi):
    """Values in [lo, hi] or one of the extreme finite floats."""
    return st.floats(lo, hi) | st.sampled_from(EXTREMES)


def _options(**values):
    """``--flag=value`` arguments for the options that are not None."""
    argv = []
    for name, value in values.items():
        if value is not None:
            argv.append(f"--{name.replace('_', '-')}={value!r}")
    return argv


def _run_contract(argv, output, summary):
    """Run argv under --json-errors, check the exit code and streams, and
    return the exit code and the summary line.

    Exit 0 or 2 prints one summary line matching ``summary`` and nothing on
    stderr; exit 1 prints nothing on stdout and one JSON line on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if output is not None:
            argv = argv + ["--format", output, "--output", f"{tmp}/artifact.{output}"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json-errors", *argv])
    assert code in (0, 1, 2)
    if code == 1:
        assert out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) >= {"error", "message"}
    else:
        assert re.fullmatch(summary, out.getvalue())
        assert err.getvalue() == ""
    return code, out.getvalue()


def _sampled_or_extreme(*plausible):
    """None, one of the plausible values or an extreme, drawn from a list
    so that no example runs a flow for minutes."""
    return st.sampled_from([None, *plausible]) | st.sampled_from(EXTREMES)


OUTPUTS = st.sampled_from([None, "csv", "json"])
TRUNCATIONS = _sampled_or_extreme(12.0, 25.0)
RTOLS = _sampled_or_extreme(1e-6, 1e-9)
GRID_STEPS = _sampled_or_extreme(0.04)
FLOAT = r"-?(\d+(\.\d*)?|inf)(e[-+]\d+)?"


class TestOracleArgvProperty:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        model=MODELS,
        lambda_star=_finite_floats(-1.0, 2.0),
        grid_step=st.none() | _finite_floats(0.01, 0.05),
        truncation=st.none() | _finite_floats(10.0, 60.0),
        count=st.none() | st.integers(1, 50) | st.integers(),
        output=OUTPUTS,
    )
    def test_exit_code_and_streams(self, model, lambda_star, grid_step,
                                   truncation, count, output):
        argv = ["oracle", "--model", model, f"--lambda-star={lambda_star!r}",
                *_options(grid_step=grid_step, truncation=truncation, count=count)]
        code, _ = _run_contract(argv, output, r"count=\d+\n")
        assert code in (0, 1)


class TestArgvProperty:
    """Every counting command exits 0, 1 or 2 with clean streams, whatever
    finite values its options get."""

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(model=MODELS, lambda_star=_plausible_or_extreme(-1.0, 2.0),
           truncation=TRUNCATIONS, rtol=RTOLS, output=OUTPUTS)
    def test_conjugate(self, model, lambda_star, truncation, rtol, output):
        argv = ["conjugate", "--model", model,
                *_options(lambda_star=lambda_star, truncation=truncation, rtol=rtol)]
        assert _run_contract(argv, output, r"conjugate_points=\d+\n")[0] in (0, 1)

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(model=MODELS, lambda_star=_plausible_or_extreme(-1.0, 2.0),
           truncation=TRUNCATIONS, rtol=RTOLS, output=OUTPUTS)
    def test_square(self, model, lambda_star, truncation, rtol, output):
        argv = ["square", "--model", model,
                *_options(lambda_star=lambda_star, truncation=truncation, rtol=rtol)]
        summary = r"net_index=-?\d+ left=\d+ top=\d+ right=\d+ bottom=\d+\n"
        assert _run_contract(argv, output, summary)[0] in (0, 1)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(model=MODELS,
           center=st.none() | st.tuples(st.sampled_from([1.25, 0.6, *EXTREMES]),
                                        st.sampled_from([0.0, 0.1, *EXTREMES])),
           radius=_sampled_or_extreme(0.5, 0.4),
           samples=st.none() | st.integers(4, 64),
           epsilon_shift=st.none() | _plausible_or_extreme(0.0, 0.5),
           truncation=TRUNCATIONS, output=OUTPUTS)
    def test_evans(self, model, center, radius, samples, epsilon_shift,
                   truncation, output):
        argv = ["evans", "--model", model,
                *_options(contour_radius=radius, contour_samples=samples,
                          epsilon_shift=epsilon_shift, truncation=truncation)]
        if center is not None:
            argv += ["--contour-center", repr(center[0]), repr(center[1])]
        assert _run_contract(argv, output, r"winding=\d+\n")[0] in (0, 1)

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(model=MODELS, epsilon_shift=st.none() | _plausible_or_extreme(0.0, 2.0),
           grid_step=GRID_STEPS, truncation=TRUNCATIONS, rtol=RTOLS)
    def test_compare(self, model, epsilon_shift, grid_step, truncation, rtol):
        argv = ["compare", "--model", model,
                *_options(epsilon_shift=epsilon_shift, grid_step=grid_step,
                          truncation=truncation, rtol=rtol)]
        summary = r"conjugate=\d+ winding=\d+ oracle=\d+ (AGREE|DISAGREE)\n"
        code, out = _run_contract(argv, "json", summary)
        assert (code == 2) == out.endswith("DISAGREE\n")

    @settings(max_examples=10, derandomize=True, database=None, deadline=None)
    @given(model=MODELS, count=st.none() | st.integers(-1, 6), grid_step=GRID_STEPS,
           truncation=TRUNCATIONS, output=OUTPUTS)
    def test_spectrum(self, model, count, grid_step, truncation, output):
        argv = ["spectrum", "--model", model,
                *_options(count=count, grid_step=grid_step, truncation=truncation)]
        summary = rf"eigenvalues=({FLOAT}(,{FLOAT})*)?\n"
        assert _run_contract(argv, output, summary)[0] in (0, 1)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(model=MODELS, lambda_star=_plausible_or_extreme(-1.0, 2.0),
           truncation=TRUNCATIONS, rtol=RTOLS, output=OUTPUTS)
    def test_prufer(self, model, lambda_star, truncation, rtol, output):
        argv = ["prufer", "--model", model,
                *_options(lambda_star=lambda_star, truncation=truncation, rtol=rtol)]
        assert _run_contract(argv, output, rf"theta_end={FLOAT}\n")[0] in (0, 1)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(d=st.integers(-1, 12) | st.sampled_from([999, 1001, 10**12]),
           l=st.integers(-1, 12) | st.sampled_from([999, 1001, 10**12]),
           k_max=st.none() | st.integers(-1, 12) | st.sampled_from([10_001, 10**12]))
    def test_radial(self, d, l, k_max):
        argv = ["radial", f"--d={d}", f"--l={l}", *_options(k_max=k_max)]
        assert _run_contract(argv, "json", rf"exponents={FLOAT},{FLOAT}\n")[0] in (0, 1)


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

    def test_evans_demo_golden(self, capsys, tmp_path, golden):
        # the one golden file of complex n = 2 frames
        out_file = tmp_path / "evans.csv"
        code, out, _ = run(capsys, "evans", "--model", "coupled_gradient_demo",
                           "--contour-samples", "64", "--output", str(out_file))
        assert (code, out) == (0, "winding=1")
        golden(out_file, "evans_demo.csv")

    def test_prufer_golden(self, capsys, tmp_path, golden):
        out_file = tmp_path / "prufer.csv"
        run(capsys, "prufer", "--model", "allen_cahn_front",
            "--lambda-star", "1e-3", "--output", str(out_file))
        golden(out_file, "prufer_front.csv")

    def test_drift_report_separates_floats_from_exact_fields(self):
        from conftest import _drift_report

        committed = b"edge,param,crossing\nleft,0.5,1\ntop,0,1\n"
        floats_moved = b"edge,param,crossing\nleft,0.50000002,1\ntop,1e-9,1\n"
        report = _drift_report("x.csv", floats_moved, committed)
        assert "at line 2:" in report
        assert "largest numeric change: 2e-08 absolute, 1 relative" in report
        assert report.endswith("integer or text fields changed: 0")
        count_moved = b"edge,param,crossing\nright,0.5,2\ntop,0,1\n"
        report = _drift_report("x.csv", count_moved, committed)
        assert "largest numeric change: 0 absolute, 0 relative" in report
        assert report.endswith("integer or text fields changed: 2")
