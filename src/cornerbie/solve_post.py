"""Direct solve, conditioning, and exterior field evaluation.

The reduced collocation system is solved with the one LU factorization
(partial pivoting) that the system owns.  Condition numbers are the
infinity-norm kind with the inverse formed explicitly from the same LU
factors: at the dense sizes used here the exact number is cheap and
reproducible.  The exterior harmonic field is recovered from the Green
representation: an N-point Gauss-Legendre sum of the single-layer term
over the macro arcs minus the Radau sums of the double-layer kernel
against the solved nodal boundary values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
from scipy.linalg import lu_solve
from scipy.linalg.lapack import dgetri, dgetri_lwork

from .assembly import DenseSystem
from .errors import ExteriorDomainError, SingularMatrixError, SolveError
from .geometry import boundary_polyline, winding_number
from .kernels import field_kernel
from .quadrature import gauss_legendre
from .rhs import NeumannDatum

__all__ = ["solve_dense", "cond_inf", "SolutionField", "solve_field", "eval_exterior"]

_RESIDUAL_TOL = 1e-10
_BOUNDARY_SAMPLES = 4096
_BOUNDARY_DISTANCE_TOL = 1e-9


def solve_dense(system: DenseSystem):
    """Solve the reduced system with its LU; returns (solution, residual_inf).

    The residual must satisfy r <= 1e-10 (|A| |x| + |b|) in infinity
    norms, otherwise the solve is rejected.
    """
    a, b = system.matrix, system.rhs
    lu, piv, norm_a = system.lu_factors
    x = lu_solve((lu, piv), b)
    residual = float(np.abs(a @ x - b).max())
    bound = _RESIDUAL_TOL * (norm_a * float(np.abs(x).max()) + float(np.abs(b).max()))
    if residual > bound:
        raise SolveError(f"residual {residual:.3e} exceeds contract {bound:.3e}")
    return x, residual


def cond_inf(system: DenseSystem) -> float:
    """Infinity-norm condition number of the system matrix.

    The inverse is formed exactly, in place from the system's LU factors
    by LAPACK getri with its optimal workspace.
    """
    lu, piv, norm_a = system.lu_factors
    lwork, _ = dgetri_lwork(lu.shape[0])
    inv, info = dgetri(lu, piv, lwork=int(lwork))
    if info != 0:
        raise SingularMatrixError(f"getri failed with info = {info}")
    np.abs(inv, out=inv)
    return norm_a * float(inv.sum(axis=1).max())


@dataclass
class SolutionField:
    """Solved nodal boundary values plus everything needed for field eval."""

    system: DenseSystem
    datum: NeumannDatum
    N: int
    values: List[np.ndarray]
    residual: float
    _polyline: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._polyline = boundary_polyline(self.system.dec.boundary, _BOUNDARY_SAMPLES)


def solve_field(system: DenseSystem, datum: NeumannDatum, N: int) -> SolutionField:
    """Solve the system and package the nodal values for evaluation."""
    x, residual = solve_dense(system)
    values = system.unknown_map.split_solution(x)
    return SolutionField(system, datum, N, values, residual)


def eval_exterior(fld: SolutionField, x: float, y: float) -> float:
    """Approximate harmonic solution at a strictly exterior point.

    Raises for points inside the domain (winding-number test against a
    dense boundary sampling) or within 1e-9 of the sampled boundary.
    The decay condition pins the value at infinity to zero.
    """
    p = np.array([float(x), float(y)])
    d = fld._polyline - p
    if float(np.sqrt((d * d).sum(axis=1)).min()) < _BOUNDARY_DISTANCE_TOL:
        raise ExteriorDomainError(f"point ({x}, {y}) is on or next to the boundary")
    if winding_number(fld._polyline, p) != 0:
        raise ExteriorDomainError(f"point ({x}, {y}) lies inside the domain")

    system = fld.system
    dec, ctx, umap = system.dec, system.ctx, system.unknown_map
    rule = gauss_legendre(fld.N)
    single = 0.0
    for k in range(len(dec.boundary.arcs)):
        pts = np.asarray(dec.boundary.arcs[k].position(rule.nodes), float)
        dist = np.linalg.norm(pts - p, axis=-1)
        dens = fld.datum.arc_density(k, rule.nodes)
        single += float(np.sum(rule.weights * dens * np.log(dist)))
    double = 0.0
    for i in range(dec.n_subarcs):
        h = field_kernel(ctx, i, p[0], p[1], umap.nodes[i])
        double += ctx.orientation(i) * float(np.sum(umap.weights[i] * h * fld.values[i]))
    return -(single - double) / (2.0 * math.pi)
