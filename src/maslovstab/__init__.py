"""Unstable-eigenvalue counting for gradient reaction-diffusion waves.

Counts unstable point spectrum of L = d^2/dx^2 + Q(x) by locating conjugate
points of the evolved unstable-solution plane (a Maslov-index computation),
cross-validated by Prufer-angle shooting for scalar problems, Evans-function
winding numbers in the spectral plane, and a dense finite-difference oracle.
A radial spatial-dynamics module covers the shrinking-sphere mode systems
and their exponential dichotomies.
"""

from .evans import Contour, SpectralReport, compare_counts, winding_number
from .flow import (
    FlowOptions,
    SquareReport,
    detect_conjugate_points,
    lambda_max_bound,
    maslov_square,
)
from .models import (
    BUILTIN_NAMES,
    EssentialSpectrumCheck,
    WaveModel,
    builtin,
    check_essential_stability,
    from_config,
    validate_model,
)
from .oracle import (
    Discretization,
    discretize,
    discretize_interval,
    eigenvalues,
    oracle_count_above,
)
from .prufer import (
    PruferTrajectory,
    ScalarProblem,
    conjugate_points,
    count_eigenvalues_above,
    find_eigenvalues,
    prufer_flow,
)
from .radial import (
    DichotomyProjection,
    cylinder_spectrum,
    evolve_mode,
    mode_exponents,
    radial_system_matrix,
    real_sph_harm,
    reconstruct_solution,
)
from .symplectic import (
    CrossingEvent,
    MaslovIndexResult,
    path_maslov_index,
    unitary_reduction,
)

__version__ = "0.1.0"
