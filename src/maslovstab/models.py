"""Linearization data for stationary waves of gradient reaction-diffusion systems.

A model carries the symmetric potential Q(x) of the linearized operator
d^2/dx^2 + Q(x), its limits at x -> +-infinity, the exponential rate at
which Q approaches those limits, and optionally the wave profile and its
derivative.  Profiles are inputs, never computed here.

Built-in models:

* ``scalar_sech_pulse``   f(u) = -u + u^2, phi = (3/2) sech^2(x/2),
                          Q = -1 + 3 sech^2(x/2)
* ``allen_cahn_front``    f(u) = u - u^3, phi = tanh(x/sqrt2),
                          Q = 1 - 3 tanh^2(x/sqrt2)
* ``coupled_gradient_demo``  n = 2 block-diagonal stack of the two scalars
                          (decoupled, so its spectrum is the union of theirs)
"""

import ast
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelValidationError

BUILTIN_NAMES = ("scalar_sech_pulse", "allen_cahn_front", "coupled_gradient_demo")

KINDS = ("pulse", "front", "custom")


@dataclass(frozen=True)
class WaveModel:
    n: int
    potential: callable           # x -> symmetric (n, n)
    q_minus: np.ndarray
    q_plus: np.ndarray
    decay_rate: float
    kind: str = "custom"
    profile: callable = None            # x -> R^n
    profile_derivative: callable = None
    name: str = ""

    def __post_init__(self):
        for attr in ("q_minus", "q_plus"):
            m = np.atleast_2d(np.asarray(getattr(self, attr), dtype=float))
            m.setflags(write=False)
            object.__setattr__(self, attr, m)

    def q(self, x):
        """Potential at x as an (n, n) array."""
        return np.atleast_2d(np.asarray(self.potential(x), dtype=float))


@dataclass(frozen=True)
class EssentialSpectrumCheck:
    stable: bool
    max_eig_qinf: float


def check_essential_stability(model):
    """Stable essential spectrum iff both asymptotic potentials are negative."""
    top = max(
        float(np.linalg.eigvalsh(model.q_minus)[-1]),
        float(np.linalg.eigvalsh(model.q_plus)[-1]),
    )
    return EssentialSpectrumCheck(stable=top < 0.0, max_eig_qinf=top)


def translation_mode_residual(model, grid):
    """Relative FD residual of L(phi_x) = (phi_x)_xx + Q phi_x = 0.

    Small for models whose potential really is the linearization at the
    stated profile; detects profile/potential inconsistencies.
    """
    if model.profile_derivative is None:
        raise ModelValidationError("profile_derivative is required for the residual")
    grid = np.asarray(grid, dtype=float)
    h = grid[1] - grid[0]
    u = np.array([np.atleast_1d(model.profile_derivative(x)) for x in grid], dtype=float)
    d2u = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
    res = np.empty_like(d2u)
    for i, x in enumerate(grid[1:-1]):
        res[i] = d2u[i] + model.q(x) @ u[i + 1]
    scale = np.sqrt(np.mean(u[1:-1] ** 2))
    if scale == 0.0:
        raise ModelValidationError("profile derivative vanishes identically")
    return float(np.sqrt(np.mean(res**2)) / scale)


def check_decay(model, x_max=None):
    """Verify Q approaches its limits at the declared exponential rate."""
    rate = model.decay_rate
    if x_max is None:
        x_max = max(23.0 / rate, 10.0)
    x_mid = 0.4 * x_max

    def residual(x):
        return max(
            np.linalg.norm(model.q(x) - model.q_plus),
            np.linalg.norm(model.q(-x) - model.q_minus),
        )

    r_mid, r_far = residual(x_mid), residual(x_max)
    bound = 10.0 * r_mid * np.exp(-rate * (x_max - x_mid)) + 1e-12
    if not r_far <= bound:
        raise ModelValidationError(
            f"potential tail {r_far:.3e} at |x| = {x_max:.3g} exceeds the "
            f"declared decay-rate bound {bound:.3e}"
        )


def validate_model(model, x_check=20.0, samples=201):
    """Check the structural invariants; raises ModelValidationError."""
    if model.n < 1:
        raise ModelValidationError("n must be positive")
    if model.kind not in KINDS:
        raise ModelValidationError(f"kind must be one of {KINDS}")
    if model.decay_rate <= 0:
        raise ModelValidationError("decay_rate must be positive")
    for attr in ("q_minus", "q_plus"):
        m = getattr(model, attr)
        if m.shape != (model.n, model.n):
            raise ModelValidationError(f"{attr} must be {model.n} x {model.n}")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ModelValidationError(f"{attr} is not symmetric")
    xs = np.linspace(-x_check, x_check, samples)
    for x in xs:
        qx = model.q(x)
        if qx.shape != (model.n, model.n):
            raise ModelValidationError(
                f"potential returns shape {qx.shape} at x = {x:.3g}"
            )
        if not np.all(np.isfinite(qx)):
            raise ModelValidationError(f"potential is not finite at x = {x:.3g}")
        if np.max(np.abs(qx - qx.T)) > 1e-12:
            raise ModelValidationError(f"potential asymmetric at x = {x:.3g}")
    check_decay(model)
    if model.kind == "pulse":
        if np.max(np.abs(model.q_minus - model.q_plus)) > 1e-12:
            raise ModelValidationError("pulse models need equal asymptotic limits")
        if model.profile_derivative is not None:
            vals = np.array(
                [np.atleast_1d(model.profile_derivative(x)) for x in xs]
            )
            takes_both_signs = np.any(vals > 0.0, axis=0) & np.any(vals < 0.0, axis=0)
            if not np.any(takes_both_signs):
                raise ModelValidationError(
                    "pulse profile derivative never changes sign on the sampled domain"
                )


# ---------------------------------------------------------------------------
# Built-in models.  Each carries the scalar energy G, gradient f = G' and
# hessian f' so the gradient structure Q(x) = hessian(phi(x)) can be checked.

_SQRT2 = np.sqrt(2.0)


def _sech(y):
    return 1.0 / np.cosh(y)


_SECH_PULSE = {
    "energy": lambda u: -0.5 * u[0] ** 2 + u[0] ** 3 / 3.0,
    "gradient": lambda u: np.array([-u[0] + u[0] ** 2]),
    "hessian": lambda u: np.array([[-1.0 + 2.0 * u[0]]]),
    "profile": lambda x: np.array([1.5 * _sech(x / 2.0) ** 2]),
    "profile_derivative": lambda x: np.array(
        [-1.5 * _sech(x / 2.0) ** 2 * np.tanh(x / 2.0)]
    ),
    "q_inf": np.array([[-1.0]]),
    "decay_rate": 1.0,
    "kind": "pulse",
}

_AC_FRONT = {
    "energy": lambda u: 0.5 * u[0] ** 2 - 0.25 * u[0] ** 4,
    "gradient": lambda u: np.array([u[0] - u[0] ** 3]),
    "hessian": lambda u: np.array([[1.0 - 3.0 * u[0] ** 2]]),
    "profile": lambda x: np.array([np.tanh(x / _SQRT2)]),
    "profile_derivative": lambda x: np.array([_sech(x / _SQRT2) ** 2 / _SQRT2]),
    "q_inf": np.array([[-2.0]]),
    "decay_rate": _SQRT2,
    "kind": "front",
}


def _stack_scalars(parts):
    def energy(u):
        return sum(p["energy"](u[i : i + 1]) for i, p in enumerate(parts))

    def hessian(u):
        return np.diag([p["hessian"](u[i : i + 1])[0, 0] for i, p in enumerate(parts)])

    def profile(x):
        return np.concatenate([p["profile"](x) for p in parts])

    def profile_derivative(x):
        return np.concatenate([p["profile_derivative"](x) for p in parts])

    q_inf = np.diag([p["q_inf"][0, 0] for p in parts])
    return {
        "energy": energy,
        "hessian": hessian,
        "profile": profile,
        "profile_derivative": profile_derivative,
        "q_inf": q_inf,
        "decay_rate": min(p["decay_rate"] for p in parts),
        "kind": "custom",
    }


_BUILTINS = {
    "scalar_sech_pulse": _SECH_PULSE,
    "allen_cahn_front": _AC_FRONT,
    "coupled_gradient_demo": _stack_scalars([_SECH_PULSE, _AC_FRONT]),
}


def builtin_functions(name):
    """Energy/hessian/profile callables backing a built-in model."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return dict(_BUILTINS[name])


def model_from_functions(name, fns, profile_scale=1.0):
    """Assemble a model whose potential is the energy hessian at the profile.

    profile_scale != 1 deliberately corrupts the profile; because the
    potential follows the (corrupted) profile through the hessian, the
    translation-mode residual then detects the inconsistency.
    """
    profile = fns["profile"]
    hessian = fns["hessian"]
    scaled_profile = (lambda x: profile_scale * profile(x))
    derivative = fns["profile_derivative"]
    scaled_derivative = (lambda x: profile_scale * derivative(x))
    q_inf = np.atleast_2d(hessian(np.atleast_1d(profile_scale * _limit_value(profile))))
    return WaveModel(
        n=q_inf.shape[0],
        potential=lambda x: hessian(scaled_profile(x)),
        q_minus=q_inf,
        q_plus=np.atleast_2d(
            hessian(np.atleast_1d(profile_scale * _limit_value(profile, side=+1)))
        ),
        decay_rate=fns["decay_rate"],
        kind=fns["kind"],
        profile=scaled_profile,
        profile_derivative=scaled_derivative,
        name=name,
    )


def _limit_value(profile, side=-1, x_far=600.0):
    return np.atleast_1d(profile(side * x_far))


def builtin(name):
    """One of the registered example models (validated)."""
    model = model_from_functions(name, builtin_functions(name))
    validate_model(model)
    return model


def constant_model(q_inf):
    """No-wave model with Q identically equal to its limit (for baselines).

    The deviation from the limit is exactly zero, so any decay rate is
    truthful; a large one lets short computational domains pass validation.
    """
    q_inf = np.atleast_2d(np.asarray(q_inf, dtype=float))
    return WaveModel(
        n=q_inf.shape[0],
        potential=lambda x: q_inf,
        q_minus=q_inf,
        q_plus=q_inf,
        decay_rate=10.0,
        kind="custom",
        name="constant",
    )


# ---------------------------------------------------------------------------
# Config documents

_CONFIG_KEYS = {
    "n", "kind", "decay_rate", "potential", "q_minus", "q_plus",
    "profile", "profile_derivative", "name",
}


# Expression entries are data, not code: numbers or strings in _GRAMMAR,
# compiled per table with float64 constants and no builtins, so evaluation
# follows numpy float semantics (overflow gives inf, 0/0 nan).
MAX_ENTRY_CHARS = 1000
_FUNCTIONS = dict(((name, getattr(np, name)) for name in
                   ("exp", "log", "sqrt", "abs", "sin", "cos", "sinh", "cosh", "tanh")),
                  sech=_sech)
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub)
_GRAMMAR = ("allowed are numbers, x, + - * / ** (powers are **, not ^), unary + -, "
            f"parentheses and one-argument calls of {', '.join(_FUNCTIONS)}")


def _checked(node, namespace):
    """The entry with its numbers bound to float64 names; ValueError outside _GRAMMAR."""
    value = node.value if isinstance(node, ast.Constant) else node
    if not isinstance(value, ast.AST):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{value!r} is not a real number")
        name = f"_c{len(namespace)}"
        namespace[name] = np.float64(float(value))
        return ast.Name(name, ast.Load())
    if isinstance(node, ast.Name) and node.id == "x":
        return node
    if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
        return ast.BinOp(_checked(node.left, namespace), node.op,
                         _checked(node.right, namespace))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _OPERATORS):
        return ast.UnaryOp(node.op, _checked(node.operand, namespace))
    name = getattr(getattr(node, "func", None), "id", None)
    if name in _FUNCTIONS and len(node.args) == 1 and not node.keywords:
        namespace[name] = _FUNCTIONS[name]
        return ast.Call(node.func, [_checked(node.args[0], namespace)], [])
    raise ValueError(f"{ast.unparse(node)!r} is outside the grammar")


def _table_callable(entries, field):
    """One code object for a table of entries (n x n or n), as x -> array of its shape."""
    namespace = {}

    def entry(value, label):
        try:
            if isinstance(value, str):
                if len(value) > MAX_ENTRY_CHARS:
                    raise ValueError(f"longer than {MAX_ENTRY_CHARS} characters")
                value = ast.parse(value.strip(), mode="eval").body
            return _checked(value, namespace)
        except (SyntaxError, ValueError, OverflowError, RecursionError) as exc:
            raise ConfigError(field, f"entry {label}: {exc}; {_GRAMMAR}")

    table = np.array(entries, dtype=object)
    nodes = [entry(table[i], f"({','.join(map(str, i))})") for i in np.ndindex(table.shape)]
    code = compile(ast.fix_missing_locations(ast.Expression(ast.Tuple(nodes, ast.Load()))),
                   field, "eval")
    return lambda x: np.array(
        eval(code, {"__builtins__": {}}, {**namespace, "x": np.float64(x)})).reshape(table.shape)


def _samples_callable(doc, n, field):
    from scipy.interpolate import CubicSpline

    xs = np.asarray(doc.get("x", []), dtype=float)
    values = np.asarray(doc.get("values", []), dtype=float)
    if xs.ndim != 1 or len(xs) < 4:
        raise ConfigError(field, "cubic interpolation needs at least 4 samples")
    if np.any(np.diff(xs) <= 0):
        raise ConfigError(field, "sample abscissas must be strictly increasing")
    if values.shape != (len(xs), n, n):
        raise ConfigError(
            field, f"values must have shape ({len(xs)}, {n}, {n}), got {values.shape}"
        )
    spline = CubicSpline(xs, values, axis=0)
    lo, hi = xs[0], xs[-1]

    def evaluate(xv):
        return np.asarray(spline(np.clip(xv, lo, hi)))

    return evaluate


def _symmetric_array(doc, key, n):
    arr = np.atleast_2d(np.asarray(doc[key], dtype=float))
    if arr.shape != (n, n):
        raise ConfigError(key, f"must be an {n} x {n} matrix, got shape {arr.shape}")
    if np.max(np.abs(arr - arr.T)) > 1e-12:
        raise ConfigError(key, "symmetry violated")
    return arr


def from_config(doc):
    """Build and validate a model from a configuration document (dict)."""
    if not isinstance(doc, dict):
        raise ConfigError("document", "configuration must be a JSON object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise ConfigError(key, "unknown key")
    for key in ("n", "decay_rate", "potential", "q_minus", "q_plus", "kind"):
        if key not in doc:
            raise ConfigError(key, "missing required field")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise ConfigError("n", "must be a positive integer")
    kind = doc["kind"]
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}")
    decay_rate = float(doc["decay_rate"])
    if decay_rate <= 0:
        raise ConfigError("decay_rate", "must be positive")
    q_minus = _symmetric_array(doc, "q_minus", n)
    q_plus = _symmetric_array(doc, "q_plus", n)

    pot_doc = doc["potential"]
    if not isinstance(pot_doc, dict) or "kind" not in pot_doc:
        raise ConfigError("potential", "must be an object with a 'kind'")
    if pot_doc["kind"] == "expression":
        entries = pot_doc.get("entries")
        if np.array(entries, dtype=object).shape != (n, n):
            raise ConfigError("potential", f"entries must be an {n} x {n} table")
        potential = _table_callable(entries, "potential")
    elif pot_doc["kind"] == "samples":
        potential = _samples_callable(pot_doc, n, "potential")
    else:
        raise ConfigError("potential", "kind must be 'expression' or 'samples'")

    profiles = {}
    for key in (k for k in ("profile", "profile_derivative") if k in doc):
        vec = doc[key]
        expression = isinstance(vec, dict) and vec.get("kind") == "expression"
        entries = vec.get("entries") if expression else None
        if np.array(entries, dtype=object).shape != (n,):
            raise ConfigError(key, f"must be an expression object listing {n} entries")
        profiles[key] = _table_callable(entries, key)

    model = WaveModel(
        n=n,
        potential=potential,
        q_minus=q_minus,
        q_plus=q_plus,
        decay_rate=decay_rate,
        kind=kind,
        profile=profiles.get("profile"),
        profile_derivative=profiles.get("profile_derivative"),
        name=str(doc.get("name", "")),
    )
    try:
        with np.errstate(all="ignore"):  # non-finite Q is a ConfigError, not a warning
            validate_model(model)
    except ModelValidationError as exc:
        raise ConfigError("model", str(exc))
    return model
