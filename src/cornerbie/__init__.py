"""Nystrom solver for the exterior Neumann Laplace problem on planar
domains with corners: sub-arc boundary decomposition, modified wedge
blocks near the corners, product integration of the logarithmic
right-hand side, and exterior field recovery.

The root exports the error types, the run entry points and point
location; everything else is imported from its module."""

from . import harness
from .errors import (
    AssemblyError,
    CoincidentPointError,
    ConfigError,
    CornerBieError,
    ExteriorDomainError,
    GeometryError,
    ParameterError,
    SingularMatrixError,
    SolveError,
)
from .geometry import boundary_polyline, winding_number
from .harness import (
    RunConfig,
    angle_sweep,
    example_config,
    make_exact_solution,
    run_example,
    write_sweep_csv,
    write_table_csv,
)

__all__ = [
    "AssemblyError",
    "CoincidentPointError",
    "ConfigError",
    "CornerBieError",
    "ExteriorDomainError",
    "GeometryError",
    "ParameterError",
    "SingularMatrixError",
    "SolveError",
    "RunConfig",
    "angle_sweep",
    "example_config",
    "make_exact_solution",
    "run_example",
    "write_sweep_csv",
    "write_table_csv",
    "boundary_polyline",
    "winding_number",
    "harness",
]

__version__ = "0.1.0"
