import copy
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from maslovstab.errors import ConfigError, ModelValidationError
from maslovstab.models import (
    BUILTIN_NAMES,
    WaveModel,
    builtin,
    builtin_functions,
    check_decay,
    check_essential_stability,
    constant_model,
    from_config,
    model_from_functions,
    translation_mode_residual,
    validate_model,
)

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

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("nonexistent")

    def test_all_builtins_validate(self):
        for name in BUILTIN_NAMES:
            validate_model(builtin(name))


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
        fns = builtin_functions("scalar_sech_pulse")
        bad = model_from_functions("corrupted", fns, profile_scale=1.1)
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
