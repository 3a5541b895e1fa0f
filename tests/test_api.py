import types

import maslovstab

# The names src/ and the CLI use; a name that only tests call does not
# belong here.
PUBLIC_NAMES = [
    "BUILTIN_NAMES",
    "Contour",
    "CrossingEvent",
    "DichotomyProjection",
    "Discretization",
    "EssentialSpectrumCheck",
    "FlowOptions",
    "MaslovIndexResult",
    "ModeSystem",
    "PruferTrajectory",
    "ScalarProblem",
    "SpectralReport",
    "SquareReport",
    "WaveModel",
    "builtin",
    "check_essential_stability",
    "check_lagrangian",
    "compare_counts",
    "conjugate_points",
    "constant_model",
    "count_eigenvalues_above",
    "cylinder_spectrum",
    "detect_conjugate_points",
    "dirichlet_intersection_dim",
    "discretize",
    "discretize_interval",
    "eigenfunction_zero_count",
    "eigenvalues",
    "evolve_mode",
    "evolve_unstable_frame",
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
    "translation_mode_residual",
    "unitary_reduction",
    "validate_model",
    "winding_number",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes depends on what
    # has been imported so far
    names = sorted(name for name, value in vars(maslovstab).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
