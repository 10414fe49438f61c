"""Double-layer kernels on the decomposed boundary.

The Nystrom blocks need the double-layer kernel between sub-arcs i
(field, parameter s) and j (source, parameter t); with z = xi + i eta,

    K(t, s) = Im(z_j'(t) / (z_i(s) - z_j(t)))
            = [eta_j' (xi_i - xi_j) - xi_j' (eta_i - eta_j)] / |z_i - z_j|^2,

its curvature-type diagonal value for i = j, t = s, and the splitting
K = L + M on the two sub-arcs flanking a corner, where

    L(t, s) = -s sin(chi pi) / (s^2 + 2 t s cos(chi pi) + t^2)

is the Mellin-type wedge kernel and M is bounded.  The numerator of K is
a normal-times-speed factor, so it is taken with the boundary's
counterclockwise orientation: on reversed (gamma) source arcs the raw
formula above flips sign and is corrected by the arc's orientation
factor.  Without that correction the wedge cancellation K - L fails on
one of the two corner blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoincidentPointError, ExteriorDomainError, ParameterError
from .geometry import CENTRAL, Decomposition, SubArc

__all__ = [
    "ArcNodes",
    "arc_nodes",
    "as_complex",
    "mellin_chi",
    "double_layer",
    "check_separation",
    "mellin_kernel",
    "mellin_corner_coefficient",
    "field_kernel_at",
]

_COINCIDENCE_FACTOR = 1e-14
_FIELD_DISTANCE_TOL = 1e-12


def _check_chi(chi: float) -> None:
    if not 0.0 < abs(chi) < 1.0:
        raise ParameterError(f"corner parameter chi must be in (-1,0) or (0,1), got {chi}")


@dataclass(frozen=True, eq=False)
class ArcNodes:
    """Geometry of a sub-arc at some parameters: positions, first
    derivatives, the continuous diagonal value of the self kernel, and
    the orientation sign (-1 on reversed arcs)."""

    points: np.ndarray
    derivs: np.ndarray
    curvature: np.ndarray
    sign: float


def arc_nodes(sub: SubArc, p: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> ArcNodes:
    """ArcNodes of sub-arc sub from its position and first and second
    derivatives.  The diagonal value is half the signed curvature
    numerator over the squared speed, with CCW orientation."""
    sign = -1.0 if sub.reversed else 1.0
    num = d1[..., 1] * d2[..., 0] - d1[..., 0] * d2[..., 1]
    return ArcNodes(p, d1, sign * 0.5 * num / (d1 * d1).sum(-1), sign)


def as_complex(p: np.ndarray) -> np.ndarray:
    """Points or vectors with a trailing coordinate axis of length 2 as x + iy."""
    return p[..., 0] + 1j * p[..., 1]


def mellin_chi(dec: Decomposition, i: int, j: int) -> Optional[float]:
    """chi of the corner that sub-arcs i and j flank from its two sides,
    or None when they are not such a Mellin pair."""
    sub_i, sub_j = dec.subarcs[i], dec.subarcs[j]
    if CENTRAL in (sub_i.kind, sub_j.kind) or abs(i - j) != 1 or i // 3 != j // 3:
        return None
    return dec.boundary.corners[i // 3].chi


def double_layer(zf: np.ndarray, zs: np.ndarray, q: np.ndarray, exempt=None):
    """(k, dist) with k[r, c] = Im(q[c] / (zf[r] - zs[c])), the kernel
    K(t_c, s_r) times w_c for q = w sigma z', and dist = |zf[r] - zs[c]|.
    Exempt pairs (coincident nodes, whose value the caller supplies) get
    k = 0 and dist = inf; callers check dist before they use k."""
    dz = zf[:, None] - zs[None, :]
    if exempt is not None:
        dz[exempt] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        return (q / dz).imag, np.abs(dz)


def check_separation(dist: np.ndarray, scale: float, fld, src) -> None:
    """Raise CoincidentPointError when a distance is below 1e-14 scale,
    which node placement rules out; fld and src are the (sub-arc,
    parameter) arrays of the rows and columns, to name the pair."""
    r, c = np.unravel_index(int(dist.argmin()), dist.shape)
    if dist[r, c] < _COINCIDENCE_FACTOR * scale:
        raise CoincidentPointError(f"sub-arcs {fld[0][r]}, {src[0][c]}: field "
                                   f"s={fld[1][r]} and source t={src[1][c]} coincide")


def mellin_kernel(chi: float, t, s):
    """Wedge (Mellin-type) kernel -s sin(chi pi)/(s^2 + 2ts cos(chi pi) + t^2)."""
    _check_chi(chi)
    t = np.asarray(t, float)
    s = np.asarray(s, float)
    den = s * s + 2.0 * t * s * math.cos(chi * math.pi) + t * t
    if np.any(den == 0.0):
        raise ParameterError("mellin kernel undefined at (t, s) = (0, 0)")
    out = -s * math.sin(chi * math.pi) / den
    return out if out.ndim else float(out)


def mellin_corner_coefficient(chi: float) -> float:
    """Corner row value of the wedge block per unit corner density.

    On the constrained space (equal corner values on the two corner
    arcs) the literal row at s = 0 and the s -> 0+ limit of the row both
    equal -chi pi times the corner value, so the whole block row enters
    assembly through this single coefficient.
    """
    _check_chi(chi)
    return -chi * math.pi


def field_kernel_at(x: float, y: float, zs: np.ndarray, dzs: np.ndarray,
                    bounds: np.ndarray) -> np.ndarray:
    """Exterior-field kernel at (x, y) from the complex source points zs
    with sub-arc derivatives dzs, where sub-arc i owns the sources
    bounds[i]:bounds[i + 1]: the raw formula, whose sign on reversed arcs
    the exterior evaluator corrects when it sums over arcs.  Raises,
    naming the first such sub-arc, when (x, y) is within 1e-12 of a source
    point."""
    k, dist = double_layer(np.array([complex(x, y)]), zs, dzs)
    near = dist[0] < _FIELD_DISTANCE_TOL
    if near.any():
        raise ExteriorDomainError(
            f"field point ({x}, {y}) within {_FIELD_DISTANCE_TOL} "
            f"of sub-arc {int(np.searchsorted(bounds, near.argmax(), 'right')) - 1}"
        )
    return k[0]
