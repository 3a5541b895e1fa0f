import ast
import pathlib
import types

import maslovstab

ROOT = pathlib.Path(__file__).resolve().parents[1]

# The package's public names.  Each one is referenced, not only defined, in
# src/ (the CLI included) or in perfbench/cases.py, or LIBRARY_API keeps it
# on purpose; a name that only tests call does not belong here.
# count_eigenvalues_above and conjugate_points are referenced by the
# scalar-spectrum benchmark workload, and real_sph_harm by
# reconstruct_solution.
PUBLIC_NAMES = [
    "BUILTIN_NAMES",
    "Contour",
    "CrossingEvent",
    "DichotomyProjection",
    "Discretization",
    "EssentialSpectrumCheck",
    "FlowOptions",
    "MaslovIndexResult",
    "PruferTrajectory",
    "ScalarProblem",
    "SpectralReport",
    "SquareReport",
    "WaveModel",
    "builtin",
    "check_essential_stability",
    "compare_counts",
    "conjugate_points",
    "count_eigenvalues_above",
    "cylinder_spectrum",
    "detect_conjugate_points",
    "discretize",
    "discretize_interval",
    "eigenvalues",
    "evolve_mode",
    "find_eigenvalues",
    "from_config",
    "lambda_max_bound",
    "maslov_square",
    "mode_exponents",
    "oracle_count_above",
    "path_maslov_index",
    "prufer_flow",
    "radial_system_matrix",
    "real_sph_harm",
    "reconstruct_solution",
    "unitary_reduction",
    "validate_model",
    "winding_number",
]

# Public names nothing calls, each with the reason it stays.
LIBRARY_API = {
    "radial_system_matrix": "the paper's shrinking-sphere mode system in the radius s",
    "reconstruct_solution": "the paper's d = 3 solutions summed from their harmonics",
}


def _module_paths():
    """The modules of src/, less __init__.py."""
    return [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]


def _caller_trees():
    """Parsed src/ modules (less __init__.py) and perfbench/cases.py: the
    code whose reads and calls give a name or a setting its caller."""
    paths = _module_paths() + [ROOT / "perfbench" / "cases.py"]
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def referenced_names():
    """Names that src/ (less __init__.py) and perfbench/cases.py read, as
    variables or attributes; definitions and docstrings do not count."""
    names = set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # has been imported so far
    names = sorted(name for name, value in vars(maslovstab).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_public_names_have_a_caller_or_a_reason():
    referenced = referenced_names()
    assert [name for name in PUBLIC_NAMES
            if name not in referenced and name not in LIBRARY_API] == []
    # an entry that gains a caller, or leaves the API, leaves the list too
    assert [name for name in LIBRARY_API
            if name in referenced or name not in PUBLIC_NAMES] == []
    assert all(reason and "\n" not in reason for reason in LIBRARY_API.values())


def test_every_function_has_a_caller():
    # a module-level function that only tests call belongs in
    # tests/reference.py
    referenced = referenced_names()
    assert [(path.stem, node.name) for path in _module_paths()
            for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.FunctionDef)
            and node.name not in referenced and node.name not in PUBLIC_NAMES] == []


def _defaulted_parameters(function, method):
    """(position or None, name) of each parameter of ``function`` that has a
    default; positions count the arguments of a call, so a method's self
    or cls is left out."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    shift = 1 if method else 0
    return ([(i - shift, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def test_every_setting_has_a_caller():
    # a default that no call overrides is a constant: a knob only tests
    # turn is a module constant they patch, as brent.MAXITER is
    calls = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(function, position, name):
        return any(
            any(k.arg in (name, None) for k in call.keywords)
            or position is not None and (
                len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args))
            for call in calls.get(function, ()))

    unpassed = []
    for path in _module_paths():
        tree = ast.parse(path.read_text(), str(path))
        methods = {node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)
                   and not any(getattr(d, "id", None) == "staticmethod"
                               for d in node.decorator_list)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                unpassed += [(path.stem, node.name, name)
                             for position, name in _defaulted_parameters(node, node in methods)
                             if not passed(node.name, position, name)]
    assert unpassed == []


def _src_sites(matches):
    """(module, innermost function) of every node in src/ that ``matches``;
    docstrings are left out."""
    sites = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        docs = {node.body[0].value for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                and ast.get_docstring(node, clean=False) is not None}
        for node in ast.walk(tree):
            if node in docs or not matches(node):
                continue
            scope = parents.get(node)
            while scope is not None and not isinstance(scope, ast.FunctionDef):
                scope = parents.get(scope)
            sites.add((path.stem, scope.name if scope else "<module>"))
    return sites


def test_one_sampler_holds_the_bad_potential_policy():
    # a potential sample that is not finite or not symmetric is refused in
    # one place with one message form, and none is skipped
    for phrase in ("not finite", "asymmetric"):
        assert _src_sites(lambda node: isinstance(node, ast.Constant)
                          and isinstance(node.value, str)
                          and phrase in node.value) == {("models", "potential_samples")}
    assert _src_sites(lambda node: isinstance(node, ast.Attribute)
                      and node.attr == "fmax") == set()
