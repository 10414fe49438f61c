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
from .geometry import _winding_of_offsets, boundary_polyline
from .kernels import field_kernel_at
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
    """Solved nodal boundary values plus everything needed for field eval.

    The double-layer sources are the nodes of the system's unknown map,
    with the geometry it holds.  Construction computes the other data
    that do not depend on the field point: the boundary polyline for
    point location, the N-point Gauss-Legendre source positions and
    weighted datum densities per macro arc, and the nodal values
    concatenated in sub-arc order.
    """

    system: DenseSystem
    datum: NeumannDatum
    N: int
    values: List[np.ndarray]
    residual: float
    _polyline: np.ndarray = field(init=False, repr=False)
    _arc_points: np.ndarray = field(init=False, repr=False)
    _arc_weights: np.ndarray = field(init=False, repr=False)
    _src_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        boundary = self.system.unknown_map.dec.boundary
        self._polyline = boundary_polyline(boundary, _BOUNDARY_SAMPLES)
        rule = gauss_legendre(self.N)
        self._arc_points = np.stack([np.asarray(arc.position(rule.nodes), float)
                                     for arc in boundary.arcs])
        self._arc_weights = np.stack([rule.weights * self.datum.arc_density(k, rule.nodes)
                                      for k in range(len(boundary.arcs))])
        self._src_values = np.concatenate(self.values)


def solve_field(system: DenseSystem, datum: NeumannDatum, N: int) -> SolutionField:
    """Solve the system and package the nodal values for evaluation."""
    x, residual = solve_dense(system)
    values = [x[idx] for idx in system.unknown_map.col_index]
    return SolutionField(system, datum, N, values, residual)


def eval_exterior(fld: SolutionField, x: float, y: float) -> float:
    """Approximate harmonic solution at a strictly exterior point.

    Raises for non-finite points, for points inside the domain
    (winding-number test against a dense boundary sampling) or within
    1e-9 of the sampled boundary, and when the value is not finite.  The
    decay condition pins the value at infinity to zero.
    """
    p = np.array([float(x), float(y)])
    if not np.isfinite(p).all():
        raise ExteriorDomainError(f"point ({x}, {y}) is not finite")
    d = fld._polyline - p
    if float(np.sqrt((d * d).sum(axis=1)).min()) < _BOUNDARY_DISTANCE_TOL:
        raise ExteriorDomainError(f"point ({x}, {y}) is on or next to the boundary")
    if _winding_of_offsets(d) != 0:
        raise ExteriorDomainError(f"point ({x}, {y}) lies inside the domain")

    # each macro arc and each sub-arc is summed over its own nodes, and the
    # sums are added in arc order: one sum over all nodes would round
    # differently from the per-arc evaluation this replaces
    dist = np.linalg.norm(fld._arc_points - p, axis=-1)
    single = 0.0
    for arc_sum in np.sum(fld._arc_weights * np.log(dist), axis=1):
        single += float(arc_sum)
    umap = fld.system.unknown_map
    h = field_kernel_at(p[0], p[1], umap.all_z, umap.all_dz, umap.bounds)
    terms = umap.all_weights * h * fld._src_values
    double = 0.0
    for arc, lo, hi in zip(umap.geometry, umap.bounds, umap.bounds[1:]):
        double += arc.sign * float(np.sum(terms[lo:hi]))
    value = -(single - double) / (2.0 * math.pi)
    if not math.isfinite(value):
        raise ExteriorDomainError(f"field value at ({x}, {y}) is not finite")
    return value
