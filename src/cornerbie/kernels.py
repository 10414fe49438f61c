"""Double-layer kernels on the decomposed boundary.

The Nystrom blocks need the double-layer kernel between sub-arcs i
(field, parameter s) and j (source, parameter t),

    K(t, s) = [eta_j'(t) (xi_i(s) - xi_j(t)) - xi_j'(t) (eta_i(s) - eta_j(t))]
              / |sigma_i(s) - sigma_j(t)|^2,

its curvature-type diagonal value for i = j, t = s, and the splitting
K = L + M on the two sub-arcs flanking a corner, where

    L(t, s) = -s sin(chi pi) / (s^2 + 2 t s cos(chi pi) + t^2)

is the Mellin-type wedge kernel and M is bounded.  The numerator of K is
a normal-times-speed factor, so it is taken with the boundary's
counterclockwise orientation: on reversed (gamma) source arcs the raw
formula above flips sign and is corrected by the arc's orientation
factor.  Without that correction the wedge cancellation K - L fails on
one of the two corner blocks.

M is evaluated at the corner node pair (0, 0) by its limit along the
s = 0 edge, which is the curvature value of the source arc at the
corner.
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
    "mellin_chi",
    "double_layer_block",
    "mellin_kernel",
    "remainder_block",
    "mellin_corner_coefficient",
    "field_kernel_at",
]

_COINCIDENCE_FACTOR = 1e-28
_FIELD_DISTANCE_TOL = 1e-12


def _check_chi(chi: float) -> None:
    if not 0.0 < abs(chi) < 1.0:
        raise ParameterError(f"corner parameter chi must be in (-1,0) or (0,1), got {chi}")


@dataclass(frozen=True, eq=False)
class ArcNodes:
    """Geometry of sub-arc index at the parameters t: positions, first
    derivatives, the continuous diagonal value of the self kernel, and
    the orientation sign (-1 on reversed arcs)."""

    index: int
    t: np.ndarray
    points: np.ndarray
    derivs: np.ndarray
    curvature: np.ndarray
    sign: float

    def take(self, h) -> "ArcNodes":
        """The nodes that the index array or mask h selects."""
        return ArcNodes(self.index, self.t[h], self.points[h], self.derivs[h],
                        self.curvature[h], self.sign)


def arc_nodes(sub: SubArc, t: np.ndarray, p: np.ndarray, d1: np.ndarray,
              d2: np.ndarray) -> ArcNodes:
    """ArcNodes of sub-arc sub from its position and first and second
    derivatives at t.  The diagonal value is half the signed curvature
    numerator over the squared speed, with CCW orientation."""
    sign = -1.0 if sub.reversed else 1.0
    num = d1[..., 1] * d2[..., 0] - d1[..., 0] * d2[..., 1]
    return ArcNodes(sub.index, t, p, d1, sign * 0.5 * num / (d1 * d1).sum(-1), sign)


def mellin_chi(dec: Decomposition, i: int, j: int) -> Optional[float]:
    """chi of the corner that sub-arcs i and j flank from its two sides,
    or None when they are not such a Mellin pair."""
    sub_i, sub_j = dec.subarcs[i], dec.subarcs[j]
    if CENTRAL in (sub_i.kind, sub_j.kind) or abs(i - j) != 1 or i // 3 != j // 3:
        return None
    return dec.boundary.corners[i // 3].chi


def _numerator_and_distance(field_pts: np.ndarray, sp: np.ndarray, sd: np.ndarray):
    """Raw double-layer numerator and squared distance between field
    points field_pts (shape (L, 2)) and source points sp with sub-arc
    derivatives sd (shape (H, 2) each); both (L, H).

    The numerator is taken with the sub-arc's own derivative, so on a
    reversed arc it carries the opposite sign of the CCW kernel.
    """
    dx = field_pts[:, None, 0] - sp[None, :, 0]
    dy = field_pts[:, None, 1] - sp[None, :, 1]
    return sd[None, :, 1] * dx - sd[None, :, 0] * dy, dx * dx + dy * dy


def _kernel(fld: ArcNodes, src: ArcNodes, scale: float, coincide: np.ndarray) -> np.ndarray:
    """K[l, h] = K(t[h], s[l]) from field nodes fld to source nodes src.

    Where coincide[l, h] holds, the entry is the continuous limit of K,
    the source arc's curvature value at t[h].  Any other pair closer than
    1e-14 scale raises, because node placement guarantees separation.
    """
    num, den = _numerator_and_distance(fld.points, src.points, src.derivs)
    den = np.where(coincide, np.inf, den)
    if den.min() < _COINCIDENCE_FACTOR * scale**2:
        l, h = np.unravel_index(int(den.argmin()), den.shape)
        raise CoincidentPointError(
            f"sub-arcs {fld.index}, {src.index}: field s={fld.t[l]} "
            f"and source t={src.t[h]} coincide"
        )
    return np.where(coincide, src.curvature[None, :], src.sign * num / den)


def double_layer_block(fld: ArcNodes, src: ArcNodes, scale: float) -> np.ndarray:
    """Kernel matrix K[l, h] = K^{i,j}(t[h], s[l]) between the field
    nodes s of sub-arc i and the source nodes t of sub-arc j; for i = j,
    entries with t[h] == s[l] take the diagonal curvature value."""
    same_arc = fld.index == src.index
    return _kernel(fld, src, scale, same_arc & (fld.t[:, None] == src.t[None, :]))


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


def remainder_block(fld: ArcNodes, src: ArcNodes, chi: float, scale: float) -> np.ndarray:
    """Remainder matrix M[l, h] = (K - L)(t[h], s[l]) on a Mellin pair
    with corner parameter chi.

    At the corner node pair t = s = 0, where K and L are both singular,
    M takes its limit along the s = 0 edge, on which L vanishes and K
    tends to the source arc's curvature value at the corner.
    """
    corner_pair = (fld.t[:, None] == 0.0) & (src.t[None, :] == 0.0)
    t = np.where(corner_pair, 1.0, src.t[None, :])
    return _kernel(fld, src, scale, corner_pair) - mellin_kernel(chi, t, fld.t[:, None])


def mellin_corner_coefficient(chi: float) -> float:
    """Corner row value of the wedge block per unit corner density.

    On the constrained space (equal corner values on the two corner
    arcs) the literal row at s = 0 and the s -> 0+ limit of the row both
    equal -chi pi times the corner value, so the whole block row enters
    assembly through this single coefficient.
    """
    _check_chi(chi)
    return -chi * math.pi


def field_kernel_at(x: float, y: float, sp: np.ndarray, sd: np.ndarray,
                    bounds: np.ndarray) -> np.ndarray:
    """Exterior-field double-layer kernel at (x, y) from source points sp
    with sub-arc derivatives sd (shape (H, 2) each), where sub-arc i owns
    the sources bounds[i]:bounds[i + 1].

    Raw formula in the sub-arc derivatives: reversing the arc flips the
    sign, which the exterior evaluator corrects when it sums over arcs.
    Raises, naming the first such sub-arc, when (x, y) is within 1e-12
    of a source point.
    """
    num, den = _numerator_and_distance(np.array([[x, y]], float), sp, sd)
    near = den[0] < _FIELD_DISTANCE_TOL**2
    if near.any():
        raise ExteriorDomainError(
            f"field point ({x}, {y}) within {_FIELD_DISTANCE_TOL} "
            f"of sub-arc {int(np.searchsorted(bounds, near.argmax(), 'right')) - 1}"
        )
    return (num / den)[0]
