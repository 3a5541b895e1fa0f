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


def referenced_names():
    """Names that src/ (less __init__.py) and perfbench/cases.py read, as
    variables or attributes; definitions and docstrings do not count."""
    paths = [p for p in sorted((ROOT / "src").rglob("*.py")) if p.name != "__init__.py"]
    names = set()
    for path in paths + [ROOT / "perfbench" / "cases.py"]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
