"""Direct solve, conditioning, and exterior field evaluation.

The collocation system is solved through the explicit inverse the
system owns (see DenseSystem.inverse), refined once against the matrix.
Condition numbers are the infinity-norm kind from the same inverse: at
the sizes used here the exact number is cheap and reproducible.  The
exterior harmonic field is recovered from the Green representation as
the field of complex sources: charges, the datum's N-point
Gauss-Legendre weights and densities at their points on the macro arcs,
and dipoles, the solved nodal values times the weighted tangents at the
Radau nodes.  Beyond twice the sources' radius both sums are taken from
a P-term multipole expansion about the node table's centre, built once
per field (Greengard & Rokhlin, J. Comput. Phys. 73, 1987).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import DenseSystem, UnknownMap, inf_norm
from .errors import AssemblyError, ExteriorDomainError, SolveError
from .geometry import as_complex

__all__ = ["solve_dense", "cond_inf", "SolutionField", "solve_field", "eval_exterior"]

_RESIDUAL_TOL = 1e-10
# beyond |z - c| = 2R the remainder is below 2^-56 of the coefficient scale
_FAR_TERMS = 56


def solve_dense(system: DenseSystem, b: np.ndarray):
    """Solve A x = b with the system's inverse, refined once; returns (solution, residual_inf).

    b must be finite and the residual r <= 1e-10 (|A| |x| + |b|) in
    infinity norms, otherwise the solve is rejected.
    """
    b = np.asarray(b, float)
    if not np.all(np.isfinite(b)):
        bad = int(np.flatnonzero(~np.isfinite(b))[0])
        raise AssemblyError(f"non-finite right-hand side entry at row {bad}")
    inv, norm_a = system.inverse
    x = inv @ b
    x += inv @ (b - system.matrix @ x)  # one fixed-precision refinement step against A
    residual = float(np.abs(system.matrix @ x - b).max())
    bound = _RESIDUAL_TOL * (norm_a * float(np.abs(x).max()) + float(np.abs(b).max()))
    if residual > bound:
        raise SolveError(f"residual {residual:.3e} exceeds contract {bound:.3e}")
    return x, residual


def cond_inf(system: DenseSystem) -> float:
    """Infinity-norm condition number |A|_inf |A^-1|_inf of the system
    matrix, from the system's explicit inverse."""
    inv, norm_a = system.inverse
    return norm_a * inf_norm(inv)


@dataclass
class SolutionField:
    """Solved nodal boundary values plus everything needed for field eval.

    values holds the solution at every row of the node table unknown_map,
    one per unknown.  rule is the row's N-point datum rule
    (NeumannDatum.sources(N)), whose positions y over all macro arcs, arc
    after arc, carry the single layer's charges w f.  The nodes w carry
    the double layer's dipoles values q.  Construction keeps both as one
    table of complex sources, offsets from the node table's centre c:
    _charges = (w f, y - c) and _dipoles = (values q, w - c).  R is the
    largest offset, and the far-field expansion about c, valid beyond 2R,
    is built from the same arrays:
    u(z) = -(W log|z - c| - Re sum e_k zeta^k) / 2 pi, zeta = 1 / (z - c),
    with the rule's flux residual W = sum w f, e_k = a_k / k - i b_(k-1),
    a_k = sum w f (y - c)^k and b_m = sum values q (w - c)^m.  _far holds
    e_k / R^k, built from powers of the offsets / R in the unit disk.
    """

    unknown_map: UnknownMap
    values: np.ndarray
    residual: float
    rule: tuple
    _center: complex = field(init=False, repr=False)
    _charges: tuple = field(init=False, repr=False)
    _dipoles: tuple = field(init=False, repr=False)
    _radius: float = field(init=False, repr=False)
    _flux: float = field(init=False, repr=False)
    _far: list = field(init=False, repr=False)

    def __post_init__(self):
        nodes = as_complex(self.unknown_map.points.T)
        self._center = c = complex(nodes.mean())
        charge, source = self._charges = (self.rule.density.ravel(),
                                          as_complex(self.rule.points).ravel() - c)
        dipole, node = self._dipoles = self.values * as_complex(self.unknown_map.q.T), nodes - c
        r = self._radius = float(max(np.abs(source).max(), np.abs(node).max()))
        self._flux = float(charge.sum())
        a_pow, b_pow, source, node = charge.astype(complex), dipole.copy(), source / r, node / r
        self._far = []
        for k in range(1, _FAR_TERMS + 1):
            a_pow *= source
            self._far.append(complex(a_pow.sum() / k - 1j * b_pow.sum() / r))
            b_pow *= node


def solve_field(system: DenseSystem, b: np.ndarray, rule) -> SolutionField:
    """Solve A x = b and package the nodal values with the row's datum rule."""
    x, residual = solve_dense(system, b)
    return SolutionField(system.unknown_map, x, residual, rule)


def eval_exterior(fld: SolutionField, x: float, y: float) -> float:
    """Approximate harmonic solution at a strictly exterior point, one that
    the boundary's PointLocator has cleared: finite, of winding number 0,
    and beyond its tol of the boundary, on which every node lies.
    run_example clears every evaluation point so, once per run.  Raises
    when the value is not finite.  Beyond |z - c| = 2R the value is the
    far-field expansion's, within it the direct sums'.  The decay condition
    pins the value at infinity to zero.
    """
    z = complex(x, y) - fld._center
    dist = math.hypot(z.real, z.imag)
    if dist > 2.0 * fld._radius:
        zeta, acc = fld._radius / z, 0j
        for e in reversed(fld._far):
            acc = (acc + e) * zeta
        return _finite(-(fld._flux * math.log(dist) - acc.real) / (2.0 * math.pi), x, y)
    (charge, source), (dipole, node) = fld._charges, fld._dipoles
    with np.errstate(divide="ignore", invalid="ignore"):
        single = float(charge @ np.log(np.abs(source - z)))
        double = float(np.sum(dipole / (z - node)).imag)
    return _finite(-(single - double) / (2.0 * math.pi), x, y)


def _finite(value: float, x, y) -> float:
    if not math.isfinite(value):
        raise ExteriorDomainError(f"field value at ({x}, {y}) is not finite")
    return value
