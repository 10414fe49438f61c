"""Exception types shared across the package."""

__all__ = [
    "CornerBieError",
    "ParameterError",
    "GeometryError",
    "CoincidentPointError",
    "AssemblyError",
    "SingularMatrixError",
    "SolveError",
    "ExteriorDomainError",
    "ConfigError",
]


class CornerBieError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(CornerBieError, ValueError):
    """An argument is outside its documented range."""


class GeometryError(CornerBieError, ValueError):
    """A boundary or decomposition failed validation."""


class CoincidentPointError(CornerBieError):
    """Field and source points coincide where they never should.

    Node placement guarantees separation, so hitting this signals a bug
    in the caller, not a recoverable condition.
    """


class AssemblyError(CornerBieError):
    """The collocation matrix could not be assembled."""


class SingularMatrixError(CornerBieError):
    """LU factorization met a numerically zero pivot."""


class SolveError(CornerBieError):
    """A direct solve finished but violated its residual contract."""


class ExteriorDomainError(CornerBieError, ValueError):
    """A field value at an evaluation point is not finite; a point inside
    the domain or too close to it is a ConfigError, before any row runs."""


class ConfigError(CornerBieError, ValueError):
    """A run configuration is inconsistent or incomplete."""
