"""Exception types shared across the package."""


class MaslovStabError(Exception):
    """Base class for all package-specific errors."""


class NonLagrangianError(MaslovStabError):
    """Frame does not span a Lagrangian plane (or is rank deficient)."""


class IllConditionedError(MaslovStabError):
    """Two independent computations of the same quantity disagree."""


class UndersampledPathError(MaslovStabError):
    """Consecutive frames move a w-eigenvalue phase by pi/2 or more."""


class BoundaryResonanceError(MaslovStabError):
    """The shooting angle lands within tolerance of a multiple of pi."""


class BracketError(MaslovStabError):
    """An eigenvalue bracket could not be established."""


class NonHyperbolicError(MaslovStabError):
    """Asymptotic matrix has a spectral gap violation at the given lambda."""


class ModelValidationError(MaslovStabError):
    """A wave model violates one of its structural invariants."""


class ConfigError(MaslovStabError):
    """A configuration document failed validation.

    Carries the offending field name so CLI errors can point at it.
    """

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class OptionsError(MaslovStabError):
    """Flow options are inconsistent with the model (e.g. truncation too short)."""


class CountMismatchError(MaslovStabError):
    """Conjugate-point channels disagree after the permitted refinement."""


class InconsistencyError(MaslovStabError):
    """A result contradicts a theorem-level invariant (e.g. nonzero square index)."""


class ContourError(MaslovStabError):
    """Contour touches the essential spectrum or passes through a zero."""


class PhaseStepError(MaslovStabError):
    """Winding-number phase steps remain unresolved after maximal refinement."""


class SeparationError(MaslovStabError):
    """lambda_star is too close to a discrete eigenvalue for a reliable count."""


class DiscretizationError(MaslovStabError):
    """Finite-difference discretization violates its size or step bounds."""


class SolverError(MaslovStabError):
    """A numerical integration failed or lost track of its solution."""
