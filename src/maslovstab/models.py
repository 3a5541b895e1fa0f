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
import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ModelValidationError

BUILTIN_NAMES = ("scalar_sech_pulse", "allen_cahn_front", "coupled_gradient_demo")

KINDS = ("pulse", "front", "custom")

_FLOAT64 = np.dtype(np.float64)

# largest entry of Q - Q^T a symmetric matrix may show
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class WaveModel:
    """Potential Q of d^2/dx^2 + Q(x), its limits and decay rate.

    ``potential`` maps one x to Q(x), read through ``q``.  The optional
    ``potential_grid`` maps an array xs of shape (m,) to the (m, n, n)
    samples: ``potential_samples`` reads a grid of Q through it in one
    call, and the frame flow reads the stage abscissae of each DOP853 step
    through it in one call.  The built-ins and ``from_config`` models carry
    one; a model without it is read through ``q`` point by point.  The
    samples get the same check either way, with the same messages.
    """

    n: int
    potential: callable           # x -> symmetric (n, n)
    q_minus: np.ndarray
    q_plus: np.ndarray
    decay_rate: float
    kind: str = "custom"
    profile: callable = None            # x -> R^n
    profile_derivative: callable = None
    name: str = ""
    # xs (m,) -> (m, n, n), equal to potential at each x; replacing
    # potential alone keeps the old one
    potential_grid: callable = None

    def __post_init__(self):
        for attr in ("q_minus", "q_plus"):
            m = np.atleast_2d(np.asarray(getattr(self, attr), dtype=float))
            m.setflags(write=False)
            object.__setattr__(self, attr, m)

    def q(self, x):
        """Potential at x as an (n, n) float64 array."""
        v = self.potential(x)
        # np.asarray and np.atleast_2d pass a 2-D float64 ndarray through
        if type(v) is np.ndarray and v.ndim == 2 and v.dtype is _FLOAT64:
            return v
        return np.atleast_2d(np.asarray(v, dtype=float))


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


def check_decay(model):
    """Verify Q approaches its limits at the declared exponential rate.

    The four tail samples go through ``potential_samples`` flattened, so it
    checks them for finiteness only: |x| = x_max may lie past [-L, L], and
    an asymmetric Q is refused where a command samples it.
    """
    rate = model.decay_rate
    x_max = max(23.0 / rate, 10.0)
    x_mid = 0.4 * x_max
    q_mid, q_mid_minus, q_far, q_far_minus = potential_samples(
        lambda x: model.q(x).ravel(), [x_mid, -x_mid, x_max, -x_max]
    ).reshape(4, model.n, model.n)
    r_mid = max(np.linalg.norm(q_mid - model.q_plus),
                np.linalg.norm(q_mid_minus - model.q_minus))
    r_far = max(np.linalg.norm(q_far - model.q_plus),
                np.linalg.norm(q_far_minus - model.q_minus))
    bound = 10.0 * r_mid * np.exp(-rate * (x_max - x_mid)) + 1e-12
    if not r_far <= bound:
        raise ModelValidationError(
            f"potential tail {r_far:.3e} at |x| = {x_max:.3g} exceeds the "
            f"declared decay-rate bound {bound:.3e}"
        )


def potential_samples(q, xs):
    """Samples of q at each x of xs, stacked on a leading axis.

    q is a WaveModel or a plain callable x -> sample.  A model with a
    ``potential_grid`` (the built-ins and ``from_config`` models) is sampled
    in one call on the array xs; any other model is read through
    ``WaveModel.q``, and a plain callable is called, once per x.  Either
    way the samples get the one check of a potential sample:
    ModelValidationError names the first x whose sample is not finite or,
    for (n, n) samples, differs from its transpose by more than
    SYMMETRY_TOL.
    """
    if isinstance(q, WaveModel) and q.potential_grid is not None:
        qs = np.asarray(q.potential_grid(np.asarray(xs, dtype=float)), dtype=float)
    else:
        at = q.q if isinstance(q, WaveModel) else q
        qs = np.array([at(x) for x in xs], dtype=float)
    finite = np.isfinite(qs.reshape(len(qs), -1)).all(axis=1)
    bad = ~finite
    if qs.ndim == 3 and qs.shape[1] == qs.shape[2]:
        # a NaN compares false here; it is caught as not finite
        bad |= np.max(np.abs(qs - qs.transpose(0, 2, 1)), axis=(1, 2)) > SYMMETRY_TOL
    if bad.any():
        k = int(np.argmax(bad))
        what = "not finite" if not finite[k] else "asymmetric"
        raise ModelValidationError(f"potential is {what} at x = {float(xs[k])!r}")
    return qs


def validate_model(model):
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
        if np.max(np.abs(m - m.T)) > SYMMETRY_TOL:
            raise ModelValidationError(f"{attr} is not symmetric")
    xs = np.linspace(-20.0, 20.0, 201)
    shape = potential_samples(model, xs).shape[1:]
    if shape != (model.n, model.n):
        raise ModelValidationError(f"potential returns shape {shape}, not "
                                   f"({model.n}, {model.n})")
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
# Built-in models.  Each scalar carries its energy G and hessian G'' so the
# gradient structure Q(x) = hessian(phi(x)) can be checked.  Profiles,
# hessians and the stack's potential map an array of x elementwise, with x
# on the last axis.

_SQRT2 = np.sqrt(2.0)


def _sech(y):
    return 1.0 / np.cosh(y)


_SECH_PULSE = {
    "energy": lambda u: -0.5 * u[0] ** 2 + u[0] ** 3 / 3.0,
    "hessian": lambda u: np.array([[-1.0 + 2.0 * u[0]]]),
    "profile": lambda x: np.array([1.5 * _sech(x / 2.0) ** 2]),
    "profile_derivative": lambda x: np.array(
        [-1.5 * _sech(x / 2.0) ** 2 * np.tanh(x / 2.0)]
    ),
    "decay_rate": 1.0,
    "kind": "pulse",
}

_AC_FRONT = {
    "energy": lambda u: 0.5 * u[0] ** 2 - 0.25 * u[0] ** 4,
    "hessian": lambda u: np.array([[1.0 - 3.0 * u[0] ** 2]]),
    "profile": lambda x: np.array([np.tanh(x / _SQRT2)]),
    "profile_derivative": lambda x: np.array([_sech(x / _SQRT2) ** 2 / _SQRT2]),
    "decay_rate": _SQRT2,
    "kind": "front",
}


def _stack_scalars(parts):
    """Block-diagonal stack: its potential is filled in part by part, each
    part's hessian at its own profile."""
    def energy(u):
        return sum(p["energy"](u[i : i + 1]) for i, p in enumerate(parts))

    def potential(x):
        out = np.zeros((len(parts), len(parts)) + np.shape(x))
        for i, p in enumerate(parts):
            out[i, i] = p["hessian"](p["profile"](x))[0, 0]
        return out

    def profile(x):
        return np.concatenate([p["profile"](x) for p in parts])

    def profile_derivative(x):
        return np.concatenate([p["profile_derivative"](x) for p in parts])

    return {
        "energy": energy,
        "potential": potential,
        "profile": profile,
        "profile_derivative": profile_derivative,
        "decay_rate": min(p["decay_rate"] for p in parts),
        "kind": "custom",
    }


_BUILTINS = {
    "scalar_sech_pulse": _SECH_PULSE,
    "allen_cahn_front": _AC_FRONT,
    "coupled_gradient_demo": _stack_scalars([_SECH_PULSE, _AC_FRONT]),
}


def builtin_functions(name):
    """Energy/hessian/profile callables backing a built-in model; a stack
    carries its potential in place of a hessian."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return dict(_BUILTINS[name])


# where the built-ins' potentials read as their limits
_X_FAR = 600.0


def model_from_functions(name, fns):
    """Assemble a model whose potential is the energy hessian at the profile,
    ``hessian(profile(x))`` unless fns gives the ``potential`` itself.

    That potential maps an array of x elementwise, so it is also the
    model's ``potential_grid``, with x moved to the leading axis.
    """
    profile = fns["profile"]
    potential = fns.get("potential")
    if potential is None:
        hessian = fns["hessian"]

        def potential(x):
            return hessian(profile(x))

    q_minus = np.atleast_2d(potential(-_X_FAR))
    return WaveModel(
        n=q_minus.shape[0],
        potential=potential,
        q_minus=q_minus,
        q_plus=np.atleast_2d(potential(_X_FAR)),
        decay_rate=fns["decay_rate"],
        kind=fns["kind"],
        profile=profile,
        profile_derivative=fns["profile_derivative"],
        name=name,
        potential_grid=lambda xs: potential(xs).transpose(2, 0, 1),
    )


def builtin(name):
    """One of the registered example models (validated)."""
    model = model_from_functions(name, builtin_functions(name))
    validate_model(model)
    return model


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


def _table_callables(entries, field):
    """One code object for a table of entries (n x n or n), as x -> array of
    its shape and as xs (m,) -> (m,) + that shape."""
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
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x")], kwonlyargs=[],
                         kw_defaults=[], defaults=[])
    body = ast.Lambda(args, ast.Tuple(nodes, ast.Load()))
    code = compile(ast.fix_missing_locations(ast.Expression(body)), field, "eval")
    table_at = eval(code, {"__builtins__": {}, **namespace})

    def at(x):
        return np.array(table_at(np.float64(x))).reshape(table.shape)

    def on_grid(xs):
        # a constant entry evaluates to one float64, spread along xs
        values = np.broadcast_arrays(xs, *table_at(xs))[1:]
        return np.stack(values, axis=-1).reshape(xs.shape + table.shape)

    return at, on_grid


def _dgtsv(dl, d, du, b):
    """Solve the tridiagonal system (dl, d, du) for every column of b in
    place: reference LAPACK ``dgtsv`` line by line, Gaussian elimination
    with partial pivoting (a row interchange where |d_i| < |dl_i|, which
    leaves the second superdiagonal in dl) and back substitution.

    Every dl_i of a spline system is positive, so the pivot of a step
    without interchange is never 0 and ``dgtsv``'s INFO checks are left
    out; a last pivot of 0 would leave non-finite slopes, which the
    model's sample check refuses.
    """
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1].copy(), b[i] - fact * b[i + 1]
    b[n - 1] /= d[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]


def _spline_coefficients(xs, ys):
    """The (4, N - 1, m) coefficients of s**3, s**2, s and 1 of the
    not-a-knot cubic through (xs, ys), ys of shape (N, m), N >= 4.

    A port of scipy's ``CubicSpline(xs, ys, axis=0)``: the knot slopes
    solve its tridiagonal system, built in its order and banded layout,
    one column per entry, by ``_dgtsv``; the pieces then follow
    ``CubicHermiteSpline``.  Each float equals scipy's ``.c`` bit for bit
    (``tests/test_models.py`` pins it).
    """
    dx = np.diff(xs)
    dxr = dx[:, None]
    slope = np.diff(ys, axis=0) / dxr
    first, last = xs[2] - xs[0], xs[-1] - xs[-3]
    slopes = np.empty_like(ys)
    slopes[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    slopes[0] = ((dxr[0] + 2 * first) * dxr[1] * slope[0]
                 + dxr[0] ** 2 * slope[1]) / first
    slopes[-1] = (dxr[-1] ** 2 * slope[-2]
                  + (2 * last + dxr[-1]) * dxr[-2] * slope[-1]) / last
    _dgtsv(np.append(dx[1:], last).tolist(),
           np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]])).tolist(),
           np.append(first, dx[:-1]).tolist(), slopes)
    t = (slopes[:-1] + slopes[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - slopes[:-1]) / dxr - t, slopes[:-1], ys[:-1]))


def _samples_callables(doc, n, field):
    """Cubic spline through the samples, x clipped to [x_0, x_N], as x ->
    (n, n) and as xs (m,) -> (m, n, n).

    The coefficients are a pinned port of scipy's ``CubicSpline``
    construction (not-a-knot ends, ``_spline_coefficients``), so importing
    a config loads no scipy.  Both callables evaluate the pieces in the
    order ``PPoly`` uses, the first in scalar floats, so each value equals
    scipy's ``CubicSpline(x, values, axis=0)(clip(x, x_0, x_N))`` bit for
    bit at a fraction of its per-call cost.
    """
    xs = _float_array(doc.get("x", []), field)
    values = _float_array(doc.get("values", []), field)
    if xs.ndim != 1 or len(xs) < 4:
        raise ConfigError(field, "cubic interpolation needs at least 4 samples")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
        raise ConfigError(field, "sample abscissas and values must be finite")
    if np.any(np.diff(xs) <= 0):
        raise ConfigError(field, "sample abscissas must be strictly increasing")
    if values.shape != (len(xs), n, n):
        raise ConfigError(
            field, f"values must have shape ({len(xs)}, {n}, {n}), got {values.shape}"
        )
    # per interval and entry; PPoly starts its sum from 0.0, which turns a
    # -0.0 constant into 0.0
    coef = _spline_coefficients(xs, values.reshape(len(xs), n * n))
    coef[3] += 0.0
    pieces = [list(zip(*coef[:, i].tolist())) for i in range(len(xs) - 1)]
    knots = xs.tolist()
    lo, hi, last = knots[0], knots[-1], len(knots) - 2

    # scipy's interval rule: x_i <= x < x_{i+1}, the last one closed
    def evaluate(xv):
        x = min(max(float(xv), lo), hi)
        i = min(bisect_right(knots, x) - 1, last)
        s = x - knots[i]
        s2 = s * s
        s3 = s2 * s
        return np.array([k0 + k1 * s + k2 * s2 + k3 * s3
                         for k3, k2, k1, k0 in pieces[i]]).reshape(n, n)

    def on_grid(xv):
        x = np.clip(xv, lo, hi)
        i = np.minimum(np.searchsorted(xs, x, side="right") - 1, last)
        s = (x - xs[i])[:, None]
        s2 = s * s
        s3 = s2 * s
        k3, k2, k1, k0 = coef[:, i]
        return (k0 + k1 * s + k2 * s2 + k3 * s3).reshape(len(x), n, n)

    return evaluate, on_grid


def _float_array(value, field):
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(field, f"entries must be numbers: {exc}")


def _symmetric_array(doc, key, n):
    arr = np.atleast_2d(_float_array(doc[key], key))
    if arr.shape != (n, n):
        raise ConfigError(key, f"must have shape ({n}, {n}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(key, "entries must be finite")
    if np.max(np.abs(arr - arr.T)) > SYMMETRY_TOL:
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ConfigError("n", "must be a positive integer")
    kind = doc["kind"]
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}")
    decay_rate = doc["decay_rate"]
    if (isinstance(decay_rate, bool) or not isinstance(decay_rate, (int, float))
            or not 0 < decay_rate <= sys.float_info.max):
        raise ConfigError("decay_rate", "must be a positive finite number")
    decay_rate = float(decay_rate)
    q_minus = _symmetric_array(doc, "q_minus", n)
    q_plus = _symmetric_array(doc, "q_plus", n)

    pot_doc = doc["potential"]
    if not isinstance(pot_doc, dict) or "kind" not in pot_doc:
        raise ConfigError("potential", "must be an object with a 'kind'")
    if pot_doc["kind"] == "expression":
        entries = pot_doc.get("entries")
        if np.array(entries, dtype=object).shape != (n, n):
            raise ConfigError("potential", f"entries must be a table of shape ({n}, {n})")
        potential, potential_grid = _table_callables(entries, "potential")
    elif pot_doc["kind"] == "samples":
        potential, potential_grid = _samples_callables(pot_doc, n, "potential")
    else:
        raise ConfigError("potential", "kind must be 'expression' or 'samples'")

    profiles = {}
    for key in (k for k in ("profile", "profile_derivative") if k in doc):
        vec = doc[key]
        expression = isinstance(vec, dict) and vec.get("kind") == "expression"
        entries = vec.get("entries") if expression else None
        if np.array(entries, dtype=object).shape != (n,):
            raise ConfigError(key, f"must be an expression object with entries of shape ({n},)")
        profiles[key] = _table_callables(entries, key)[0]

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
        potential_grid=potential_grid,
    )
    try:
        with np.errstate(all="ignore"):  # non-finite Q is a ConfigError, not a warning
            validate_model(model)
    except ModelValidationError as exc:
        raise ConfigError("model", str(exc))
    return model
