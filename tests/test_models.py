import copy
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from maslovstab import models
from maslovstab.errors import ConfigError, ModelValidationError
from maslovstab.models import (
    BUILTIN_NAMES,
    WaveModel,
    builtin,
    builtin_functions,
    check_decay,
    check_essential_stability,
    from_config,
    model_from_functions,
    potential_samples,
    validate_model,
)
import zoo
from reference import constant_model, translation_mode_residual

SECH_CONFIG = {
    "n": 1,
    "kind": "pulse",
    "decay_rate": 1.0,
    "potential": {"kind": "expression", "entries": [["-1 + 3/cosh(x/2)**2"]]},
    "q_minus": [[-1.0]],
    "q_plus": [[-1.0]],
    "profile": {"kind": "expression", "entries": ["1.5/cosh(x/2)**2"]},
    "profile_derivative": {
        "kind": "expression",
        "entries": ["-1.5/cosh(x/2)**2 * tanh(x/2)"],
    },
}


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {
            "scalar_sech_pulse", "allen_cahn_front", "coupled_gradient_demo"
        }

    def test_sech_pulse_center_value(self):
        m = builtin("scalar_sech_pulse")
        assert_allclose(m.q(0.0), [[2.0]], atol=1e-14)

    def test_allen_cahn_center_value(self):
        m = builtin("allen_cahn_front")
        assert_allclose(m.q(0.0), [[1.0]], atol=1e-14)

    def test_coupled_center_value(self):
        m = builtin("coupled_gradient_demo")
        assert_allclose(m.q(0.0), np.diag([2.0, 1.0]), atol=1e-14)

    def test_coupled_potential_is_the_diagonal_of_its_parts(self):
        sech, front, demo = (builtin(name) for name in BUILTIN_NAMES)
        for x in np.linspace(-20.0, 20.0, 41):
            expected = np.diag([sech.q(x)[0, 0], front.q(x)[0, 0]])
            assert np.array_equal(demo.q(x), expected)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("nonexistent")

    def test_all_builtins_validate(self):
        for name in BUILTIN_NAMES:
            validate_model(builtin(name))


class TestPotentialValue:
    @pytest.mark.parametrize("value", [
        -0.5,
        [[1.0, 0.25], [0.25, -2.0]],
        np.array([[1, 2], [2, -3]]),
        np.array([[0.1, 0.3], [0.3, -0.7]], dtype=np.float32),
        np.array(-0.5),
        np.array([[0.1, 0.3], [0.3, -0.7]], dtype=">f8"),
    ], ids=["float", "list", "int-array", "float32-array", "0-d-array",
            "big-endian-array"])
    def test_q_converts_like_asarray(self, value):
        expected = np.atleast_2d(np.asarray(value, dtype=float))
        n = expected.shape[0]
        model = WaveModel(n=n, potential=lambda x: value, q_minus=expected,
                          q_plus=expected, decay_rate=1.0)
        got = model.q(0.0)
        assert type(got) is np.ndarray and got.dtype == np.dtype(np.float64)
        assert got.shape == (n, n)
        assert np.array_equal(got, expected)

    def test_q_passes_a_float64_matrix_through(self):
        value = np.array([[0.1, 0.3], [0.3, -0.7]])
        model = WaveModel(n=2, potential=lambda x: value, q_minus=value,
                          q_plus=value, decay_rate=1.0)
        assert model.q(0.0) is value


class TestEssentialSpectrum:
    def test_sech_pulse_stable(self):
        chk = check_essential_stability(builtin("scalar_sech_pulse"))
        assert chk.stable
        assert_allclose(chk.max_eig_qinf, -1.0)

    def test_allen_cahn_stable(self):
        chk = check_essential_stability(builtin("allen_cahn_front"))
        assert chk.stable
        assert_allclose(chk.max_eig_qinf, -2.0)

    def test_indefinite_limit_unstable(self):
        m = constant_model(np.diag([-1.0, 0.5]))
        chk = check_essential_stability(m)
        assert not chk.stable
        assert_allclose(chk.max_eig_qinf, 0.5)


class TestTranslationMode:
    GRID = np.arange(-40.0, 40.0 + 1e-9, 1e-3)

    def test_sech_pulse_residual_small(self):
        res = translation_mode_residual(builtin("scalar_sech_pulse"), self.GRID)
        assert res < 1e-5

    def test_allen_cahn_residual_small(self):
        res = translation_mode_residual(builtin("allen_cahn_front"), self.GRID)
        assert res < 1e-5

    def test_corrupted_profile_detected(self):
        # the potential follows the scaled profile through the hessian, so it
        # no longer annihilates the profile's derivative
        fns = builtin_functions("scalar_sech_pulse")
        profile, derivative = fns["profile"], fns["profile_derivative"]
        fns.update(profile=lambda x: 1.1 * profile(x),
                   profile_derivative=lambda x: 1.1 * derivative(x))
        bad = model_from_functions("corrupted", fns)
        res = translation_mode_residual(bad, self.GRID)
        assert res > 1e-2

    def test_missing_profile_rejected(self):
        with pytest.raises(ModelValidationError):
            translation_mode_residual(constant_model([[-1.0]]), self.GRID)


class TestGradientStructure:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_potential_is_energy_hessian(self, name):
        model = builtin(name)
        fns = builtin_functions(name)
        energy, profile = fns["energy"], fns["profile"]
        h = 1e-4
        for x in np.linspace(-6.0, 6.0, 25):
            u = np.atleast_1d(profile(x))
            n = len(u)
            hess = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    ei = np.zeros(n)
                    ej = np.zeros(n)
                    ei[i] = h
                    ej[j] = h
                    hess[i, j] = (
                        energy(u + ei + ej) - energy(u + ei - ej)
                        - energy(u - ei + ej) + energy(u - ei - ej)
                    ) / (4.0 * h * h)
            assert np.max(np.abs(hess - model.q(x))) < 1e-6

    def test_pulse_derivative_changes_sign(self):
        m = builtin("scalar_sech_pulse")
        xs = np.linspace(-10.0, 10.0, 101)
        vals = np.array([m.profile_derivative(x)[0] for x in xs])
        assert np.any(vals > 0) and np.any(vals < 0)


class TestDecayCheck:
    def test_builtin_decay_passes(self):
        for name in BUILTIN_NAMES:
            check_decay(builtin(name))

    def test_understated_rate_fails(self):
        fns = builtin_functions("scalar_sech_pulse")
        m = model_from_functions("bad_rate", fns)
        slow = type(m)(
            n=m.n, potential=m.potential, q_minus=m.q_minus, q_plus=m.q_plus,
            decay_rate=5.0, kind=m.kind, profile=m.profile,
            profile_derivative=m.profile_derivative, name="bad_rate",
        )
        with pytest.raises(ModelValidationError):
            check_decay(slow)

    def test_non_finite_tail_sample_is_the_sampler_error(self):
        # 0 * exp(x^2 / 0.74) overflows to 0 * inf = nan only near |x| = 23,
        # where the check reads the far tail; no validation sample sees it
        entry = "-1 + 3/cosh(x/2)**2 + 0*exp(x**2/0.74)"
        cfg = dict(SECH_CONFIG, potential={"kind": "expression", "entries": [[entry]]})
        with pytest.raises(ConfigError) as info:
            from_config(cfg)
        assert str(info.value) == "model: potential is not finite at x = 23.0"

    def test_zoo_models_validate(self):
        # their tail samples are finite; only those go through the sampler
        rng = np.random.default_rng(5)
        for _ in range(8):
            validate_model(zoo.random_bump_model(rng))
            validate_model(zoo.random_pulse_model(rng)[0])


class TestFromConfig:
    def test_round_trip_matches_builtin(self):
        cfg_model = from_config(SECH_CONFIG)
        ref = builtin("scalar_sech_pulse")
        for x in np.linspace(-10.0, 10.0, 41):
            assert np.max(np.abs(cfg_model.q(x) - ref.q(x))) < 1e-12

    def test_asymmetric_potential_rejected(self):
        cfg = {
            "n": 2,
            "kind": "custom",
            "decay_rate": 1.0,
            "potential": {
                "kind": "expression",
                "entries": [["-1", "exp(-x**2)"], ["0", "-1"]],
            },
            "q_minus": [[-1.0, 0.0], [0.0, -1.0]],
            "q_plus": [[-1.0, 0.0], [0.0, -1.0]],
        }
        with pytest.raises(ConfigError, match="symmetr"):
            from_config(cfg)

    def test_missing_q_plus_rejected(self):
        cfg = {k: v for k, v in SECH_CONFIG.items() if k != "q_plus"}
        with pytest.raises(ConfigError, match="q_plus"):
            from_config(cfg)

    def test_missing_decay_rate_names_field(self):
        cfg = {k: v for k, v in SECH_CONFIG.items() if k != "decay_rate"}
        with pytest.raises(ConfigError, match="decay_rate"):
            from_config(cfg)

    def test_sampled_potential_needs_four_points(self):
        cfg = dict(SECH_CONFIG)
        cfg.pop("profile")
        cfg.pop("profile_derivative")
        cfg["potential"] = {
            "kind": "samples",
            "x": [-1.0, 0.0, 1.0],
            "values": [[[0.0]], [[1.0]], [[0.0]]],
        }
        with pytest.raises(ConfigError, match="4 samples"):
            from_config(cfg)

    def test_sampled_potential_works(self):
        xs = np.linspace(-30.0, 30.0, 301)
        cfg = {
            "n": 1,
            "kind": "custom",
            "decay_rate": 1.0,
            "potential": {
                "kind": "samples",
                "x": xs.tolist(),
                "values": [[[float(-1.0 + 3.0 / np.cosh(x / 2.0) ** 2)]] for x in xs],
            },
            "q_minus": [[-1.0]],
            "q_plus": [[-1.0]],
        }
        m = from_config(cfg)
        assert abs(m.q(0.0)[0, 0] - 2.0) < 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_sampled_potential_is_the_clipped_spline(self, n):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(11)
        xs = np.linspace(-8.0, 8.0, 41) + rng.uniform(-0.1, 0.1, 41)
        q_inf = -np.eye(n)
        s = rng.standard_normal((n, n))
        values = q_inf + 0.5 * (s + s.T) * np.exp(-xs**2)[:, None, None]
        # a -0.0 sample where every other spline coefficient is negative:
        # PPoly sums from 0.0, so it reads 0.0 there
        values[19:23, 0, 0] = [1.0, -0.0, -1.5, -4.0]
        cfg = {"n": n, "kind": "custom", "decay_rate": 1.0,
               "potential": {"kind": "samples", "x": xs.tolist(),
                             "values": values.tolist()},
               "q_minus": q_inf.tolist(), "q_plus": q_inf.tolist()}
        model = from_config(cfg)
        points = np.concatenate([xs, [-np.inf, -1e300, np.inf, 1e300],
                                 rng.uniform(-12.0, 12.0, 1000)])
        got = np.array([model.q(x) for x in points])
        want = CubicSpline(xs, values, axis=0)(np.clip(points, xs[0], xs[-1]))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got = potential_samples(model, points)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_spline_coefficients_are_scipys(self, monkeypatch):
        # the package's not-a-knot build, float for float against scipy's,
        # over 4 to 120 samples, n = 1..3 and a -0.0 sample in every set
        from scipy.interpolate import CubicSpline

        dgtsv, interchanged = models._dgtsv, []

        def recording(dl, d, du, b):
            # dgtsv leaves the second superdiagonal in dl: nonzero in a row
            # that took the interchange branch, 0.0 in one that did not
            dgtsv(dl, d, du, b)
            interchanged.append(any(dl[:-1]))

        monkeypatch.setattr(models, "_dgtsv", recording)
        rng = np.random.default_rng(35)
        for trial in range(48):
            count = 4 if trial % 4 == 0 else int(rng.integers(5, 121))
            n = 1 + trial % 3
            if trial % 2:
                xs = np.linspace(-6.0, 6.0, count)
            else:
                xs = np.cumsum(rng.exponential(1.0, count) ** 3 + 1e-3)
            values = rng.standard_normal((count, n, n)) * 10.0 ** rng.uniform(-3, 3)
            values[rng.integers(count)] = -0.0
            ys = values.reshape(count, n * n)
            got = models._spline_coefficients(xs, ys)
            want = CubicSpline(xs, values, axis=0).c.reshape(4, count - 1, n * n)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert len(interchanged) == 48 and set(interchanged) == {True, False}

    def test_unknown_key_rejected(self):
        cfg = dict(SECH_CONFIG)
        cfg["spurious"] = 1
        with pytest.raises(ConfigError, match="spurious"):
            from_config(cfg)

    def test_bad_expression_rejected(self):
        cfg = dict(SECH_CONFIG)
        cfg["potential"] = {"kind": "expression", "entries": [["not a )( formula"]]}
        with pytest.raises(ConfigError, match="potential"):
            from_config(cfg)

    def test_no_sympy_needed(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "sympy", None)
        m = from_config(SECH_CONFIG)
        assert_allclose(m.q(0.0), [[2.0]], atol=1e-14)

    def test_table_matches_numpy(self):
        # every function of the grammar, evaluated as numpy would
        cfg = {
            "n": 2,
            "kind": "custom",
            "decay_rate": 1.0,
            "potential": {"kind": "expression", "entries": [
                ["-1 + 3*sech(x/2)**2", "0.1*exp(-x**2)*cos(x)"],
                ["0.1*exp(-x**2)*cos(x)",
                 "-2 + abs(tanh(x))*sinh(x)/cosh(x)**3 - +sin(x)*exp(-x**2)*log(2 + sqrt(1 + x*x))"],
            ]},
            "q_minus": [[-1.0, 0.0], [0.0, -2.0]],
            "q_plus": [[-1.0, 0.0], [0.0, -2.0]],
        }
        m = from_config(cfg)
        for x in np.linspace(-3.0, 3.0, 13):
            off = 0.1 * np.exp(-x**2) * np.cos(x)
            ref = [[-1 + 3 * (1 / np.cosh(x / 2)) ** 2, off],
                   [off, -2 + np.abs(np.tanh(x)) * np.sinh(x) / np.cosh(x) ** 3
                    - np.sin(x) * np.exp(-x**2) * np.log(2 + np.sqrt(1 + x * x))]]
            assert_allclose(m.q(x), ref, rtol=1e-15, atol=0.0)

    def test_json_numbers_are_entries(self):
        cfg = dict(SECH_CONFIG)
        cfg["potential"] = {"kind": "expression", "entries": [[-1]]}
        assert_allclose(from_config(cfg).q(5.0), [[-1.0]])
        cfg["potential"] = {"kind": "expression", "entries": [[" -1.0e0 "]]}
        assert_allclose(from_config(cfg).q(5.0), [[-1.0]])

    @pytest.mark.parametrize("entry, message", [
        ("x^2", "'x ^ 2' is outside the grammar; allowed are numbers, x, "
                "+ - * / ** (powers are **, not ^)"),
        ("y*exp(-x**2)", "'y' is outside"),
        ("os.getcwd()", "'os.getcwd()' is outside"),
        ("erf(x)", "'erf(x)' is outside"),
        ("x.real", "'x.real' is outside"),
        ("exp(x)[0]", "'exp(x)[0]' is outside"),
        ("exp(x=1)", "'exp(x=1)' is outside"),
        ("sin(x, 2)", "'sin(x, 2)' is outside"),
        ("x < 1", "'x < 1' is outside"),
        ("lambda: 1", "'lambda: 1' is outside"),
        ("'1'", "'1' is not a real number"),
        ("True", "True is not a real number"),
        ("1j*x", "1j is not a real number"),
        (True, "True is not a real number"),
        (None, "None is not a real number"),
        pytest.param("1" + "0" * 400, "too large", id="huge-int"),
        pytest.param("x" * 1001, "longer than 1000 characters", id="too-long"),
        pytest.param("-" * 999 + "x", "recursion", id="deep-nesting"),
        ("exp(", "never closed"),
    ])
    def test_entry_outside_grammar_rejected(self, entry, message):
        cfg = dict(SECH_CONFIG)
        cfg["potential"] = {"kind": "expression", "entries": [[entry]]}
        with pytest.raises(ConfigError) as info:
            from_config(cfg)
        assert info.value.field == "potential"
        assert str(info.value).startswith("potential: entry (0,0): ")
        assert message in str(info.value)

    def test_profile_entry_index_named(self):
        cfg = dict(SECH_CONFIG)
        cfg["profile"] = {"kind": "expression", "entries": ["__import__('os')"]}
        with pytest.raises(ConfigError, match=r"entry \(0\)") as info:
            from_config(cfg)
        assert info.value.field == "profile"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [
        "-1 + 0*log(-1 - x**2)", "-1 + 0*x*2**10**10", "1/(x - x)",
        "-1 + 0*exp(x**2/0.74)",  # finite on [-20, 20], nan at the decay check
    ])
    def test_non_finite_potential_rejected(self, entry):
        cfg = dict(SECH_CONFIG)
        cfg["potential"] = {"kind": "expression", "entries": [[entry]]}
        with pytest.raises(ConfigError, match="not finite|tail nan"):
            from_config(cfg)

    def test_validate_rejects_non_finite_sample(self):
        ref = builtin("scalar_sech_pulse")
        holed = WaveModel(
            n=1, potential=lambda x: [[np.nan]] if x == 0.0 else ref.q(x),
            q_minus=ref.q_minus, q_plus=ref.q_plus, decay_rate=1.0,
            kind="pulse", name="holed",
        )
        with pytest.raises(ModelValidationError, match="not finite at x = 0"):
            validate_model(holed)


def _loop_twin(model):
    """The same model without its array form: sampled point by point."""
    return dataclasses.replace(model, potential_grid=None)


def _config(entries, n):
    q_inf = (-np.eye(n)).tolist()
    return {"n": n, "kind": "custom", "decay_rate": 1.0, "q_minus": q_inf,
            "q_plus": q_inf, "potential": {"kind": "expression", "entries": entries}}


def _spline_config(n):
    rng = np.random.default_rng(5)
    knots = np.linspace(-12.0, 12.0, 121) + rng.uniform(-0.05, 0.05, 121)
    s = rng.standard_normal((n, n))
    values = -np.eye(n) + 0.5 * (s + s.T) * np.exp(-knots**2 / 4)[:, None, None]
    return {"n": n, "kind": "custom", "decay_rate": 1.0,
            "q_minus": (-np.eye(n)).tolist(), "q_plus": (-np.eye(n)).tolist(),
            "potential": {"kind": "samples", "x": knots.tolist(),
                          "values": values.tolist()}}


# the sampling grids' range and two points past it
_POINTS = np.concatenate([np.linspace(-40.0, 40.0, 4001), [-55.5, 73.25]])


class TestArraySampling:
    EXPRESSIONS = {
        "n1": _config([["-1 + 12*0.36*sech(0.6*(x - 1.5))**2"]], 1),
        "n2-constant": _config([["-1 + 3*sech(x/2)**2", "0"],
                                ["0", "-1 + 3*tanh(x)**2*exp(-x**2)"]], 2),
    }

    @pytest.mark.parametrize("model", [
        *(pytest.param(lambda name=name: builtin(name), id=name) for name in BUILTIN_NAMES),
        *(pytest.param(lambda cfg=cfg: from_config(cfg), id=key)
          for key, cfg in EXPRESSIONS.items()),
    ])
    def test_array_form_matches_the_loop(self, model):
        # numpy's array and one-element ufunc loops (tanh, cosh) may round
        # apart in the last place
        model = model()
        assert model.potential_grid is not None
        got = potential_samples(model, _POINTS)
        want = potential_samples(_loop_twin(model), _POINTS)
        assert got.shape == want.shape == (len(_POINTS), model.n, model.n)
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2])
    def test_spline_array_form_is_the_loop_bit_for_bit(self, n):
        cfg = _spline_config(n)
        model = from_config(cfg)
        knots = np.array(cfg["potential"]["x"])
        # clipped on both sides, and on every knot (the last interval closed)
        points = np.concatenate([_POINTS, knots, [-np.inf, np.inf, -1e300]])
        got = potential_samples(model, points)
        want = potential_samples(_loop_twin(model), points)
        assert got.shape == (len(points), n, n)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("entries, message", [
        ([["-1 + 3*sech(x/2)**2 + 0*log(abs(x - 3.3))"]],
         "potential is not finite at x = 3.3"),
        ([["-1", "exp(-(1000*(x - 3.3))**2)"], ["0", "-1"]],
         "potential is asymmetric at x = 3.3"),
    ], ids=["nan", "asymmetric"])
    def test_refusals_read_the_same_on_both_paths(self, entries, message):
        # the bad point lies off the validation grid, so the model builds
        model = from_config(_config(entries, len(entries)))
        points = [0.0, 1.25, 3.3, 4.0]
        texts = []
        for source in (model, _loop_twin(model)):
            with np.errstate(divide="ignore", invalid="ignore"), \
                    pytest.raises(ModelValidationError) as info:
                potential_samples(source, points)
            texts.append(str(info.value))
        assert texts == [message, message]


_FUNCTION_NAMES = ("exp", "log", "sqrt", "abs", "sin", "cos", "sinh", "cosh",
                   "tanh", "sech")


def _grammar_expressions():
    leaves = st.sampled_from(["x", "1", "2.5", "1e-3", "0", "3", "10", "1e300"])
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds("({}{}{})".format, inner,
                  st.sampled_from(["+", "-", "*", "/", "**"]), inner),
        st.builds("-{}".format, inner),
        st.builds("{}({})".format, st.sampled_from(_FUNCTION_NAMES), inner),
    ), max_leaves=12)


_TOKENS = ["x", "1", "2.5", "0", "10", "+", "-", "*", "/", "**", "^", "(", ")",
           ",", " ", ".", "[0]", "y", "I", "zoo", "pi", "__import__", "'os'",
           "lambda", ":", "==", "True", "1j", "x=1", "10**400",
           *(f"{name}(" for name in _FUNCTION_NAMES)]


class TestConfigEntryProperty:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        entry=st.one_of(
            _grammar_expressions().map("-1 + 0.5*exp(-x**2)*{}".format),
            _grammar_expressions(),
            st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
            st.text(max_size=80),
            st.integers(), st.floats(), st.booleans(), st.none(),
        ),
        field=st.sampled_from(["potential", "profile_derivative"]),
    )
    def test_model_or_config_error(self, entry, field):
        cfg = copy.deepcopy(SECH_CONFIG)
        if field == "potential":
            cfg["potential"]["entries"] = [[entry]]
        else:
            cfg["profile_derivative"]["entries"] = [entry]
        try:
            model = from_config(cfg)
        except ConfigError as exc:
            assert exc.field in (field, "model")
            return
        assert isinstance(model, WaveModel)
        assert np.all(np.isfinite(model.q(0.0)))
