"""Direct solve, conditioning, and exterior field evaluation.

The collocation system is solved through the explicit inverse the
system owns (see DenseSystem.inverse), refined once against the matrix.
Condition numbers are the infinity-norm kind from the same inverse: at
the sizes used here the exact number is cheap and reproducible.  The
exterior harmonic field is recovered from the Green representation: an
N-point Gauss-Legendre sum of the single-layer term over the macro arcs
minus the Radau sum of the assembly's double-layer kernel over the node
table against the solved nodal boundary values.  Beyond twice the
sources' radius both sums are taken from a P-term multipole expansion
about the node table's centre, built once per field (Greengard &
Rokhlin, J. Comput. Phys. 73, 1987).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import DenseSystem, UnknownMap, inf_norm
from .errors import AssemblyError, ExteriorDomainError, SolveError
from .geometry import as_complex
from .kernels import double_layer

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
    one per unknown, and the double-layer sources are those rows.  rule is
    the row's N-point datum rule (NeumannDatum.sources(N)), whose positions
    and weighted densities over all macro arcs, arc after arc, are the
    single-layer sources.  Construction builds what does not depend on the
    field point, the far-field expansion about the node table's centre c,
    valid beyond 2R, R the largest distance from c to a panel end of the
    boundary's locator plus its largest strip half-width, which bounds the
    distance to every boundary point and so to every source:
    u(z) = -(W log|z - c| - Re sum e_k zeta^k) / 2 pi, zeta = 1 / (z - c),
    with the rule's flux residual W = sum w f, e_k = a_k / k - i b_(k-1),
    a_k = sum w f (y - c)^k over the rule's sources y and
    b_m = sum values q (w - c)^m over the nodes w.  _far
    holds e_k / R^k, built from powers of (y - c) / R in the unit disk.
    """

    unknown_map: UnknownMap
    values: np.ndarray
    residual: float
    rule: tuple
    _arc_points: np.ndarray = field(init=False, repr=False)
    _arc_weights: np.ndarray = field(init=False, repr=False)
    _center: complex = field(init=False, repr=False)
    _radius: float = field(init=False, repr=False)
    _flux: float = field(init=False, repr=False)
    _far: list = field(init=False, repr=False)

    def __post_init__(self):
        umap, rule = self.unknown_map, self.rule
        loc = umap.dec.boundary.locator
        self._arc_points, self._arc_weights = rule.points.reshape(-1, 2), rule.density.ravel()
        nodes = as_complex(umap.points.T)
        self._center = c = complex(nodes.mean())
        sources, nodes = as_complex(self._arc_points) - c, nodes - c
        ends = np.concatenate([loc.start, loc.end])
        r = self._radius = float(np.abs(ends - c).max() + loc.strip.max())
        self._flux = float(self._arc_weights.sum())
        sources, nodes = sources / r, nodes / r
        a_pow, b_pow = self._arc_weights.astype(complex), self.values * as_complex(umap.q.T)
        self._far = []
        for k in range(1, _FAR_TERMS + 1):
            a_pow *= sources
            self._far.append(complex(a_pow.sum() / k - 1j * b_pow.sum() / r))
            b_pow *= nodes


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
    p = np.array([float(x), float(y)])
    k, _ = double_layer((p[:1], p[1:]), fld.unknown_map.points, fld.unknown_map.q)
    single = float(fld._arc_weights @ np.log(np.linalg.norm(fld._arc_points - p, axis=-1)))
    return _finite(-(single - float(k[0] @ fld.values)) / (2.0 * math.pi), x, y)


def _finite(value: float, x, y) -> float:
    if not math.isfinite(value):
        raise ExteriorDomainError(f"field value at ({x}, {y}) is not finite")
    return value
