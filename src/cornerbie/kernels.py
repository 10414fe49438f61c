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
from dataclasses import dataclass, field

import numpy as np

from .errors import CoincidentPointError, ExteriorDomainError, ParameterError
from .geometry import CENTRAL, Decomposition, boundary_polyline, subarc_eval

__all__ = [
    "KernelContext",
    "double_layer_block",
    "mellin_kernel",
    "remainder_block",
    "corner_remainder_limit",
    "mellin_corner_coefficient",
    "field_kernel",
    "field_kernel_at",
]

_COINCIDENCE_FACTOR = 1e-28
_FIELD_DISTANCE_TOL = 1e-12


def _check_chi(chi: float) -> None:
    if not 0.0 < abs(chi) < 1.0:
        raise ParameterError(f"corner parameter chi must be in (-1,0) or (0,1), got {chi}")


@dataclass
class KernelContext:
    """Precomputed per-sub-arc data shared by all kernel evaluations."""

    dec: Decomposition
    scale: float = field(init=False)

    def __post_init__(self):
        pts = boundary_polyline(self.dec.boundary, 1024)
        self.scale = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))

    def orientation(self, j: int) -> float:
        return -1.0 if self.dec.subarcs[j].reversed else 1.0

    def is_mellin_pair(self, i: int, j: int) -> bool:
        sub_i, sub_j = self.dec.subarcs[i], self.dec.subarcs[j]
        return (sub_i.kind != CENTRAL and sub_j.kind != CENTRAL
                and abs(i - j) == 1 and i // 3 == j // 3)

    def pair_chi(self, i: int, j: int) -> float:
        if not self.is_mellin_pair(i, j):
            raise ParameterError(f"sub-arcs ({i}, {j}) do not flank a common corner")
        return self.dec.boundary.corners[i // 3].chi


def _diagonal_values(ctx: KernelContext, j: int, t: np.ndarray) -> np.ndarray:
    """Continuous diagonal value of the self kernel: half the signed
    curvature numerator over the squared speed, with CCW orientation."""
    _, d1, d2 = subarc_eval(ctx.dec, j, t)
    num = d1[..., 1] * d2[..., 0] - d1[..., 0] * d2[..., 1]
    return ctx.orientation(j) * 0.5 * num / (d1 * d1).sum(-1)


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


def _check_separated(ctx: KernelContext, i: int, j: int, t: np.ndarray,
                     s: np.ndarray, den: np.ndarray) -> None:
    if den.min() < _COINCIDENCE_FACTOR * ctx.scale**2:
        l, h = np.unravel_index(int(den.argmin()), den.shape)
        raise CoincidentPointError(
            f"sub-arcs {i}, {j}: field s={s[l]} and source t={t[h]} coincide"
        )


def double_layer_block(ctx: KernelContext, i: int, j: int,
                       t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Kernel matrix K[l, h] = K^{i,j}(t[h], s[l]), vectorized.

    For i = j, entries with t[h] == s[l] take the diagonal curvature
    value.  For i != j a squared distance below 1e-28 * scale^2 raises,
    because node placement guarantees separation.
    """
    t = np.atleast_1d(np.asarray(t, float))
    s = np.atleast_1d(np.asarray(s, float))
    fp, _, _ = subarc_eval(ctx.dec, i, s)
    sp, sd, _ = subarc_eval(ctx.dec, j, t)
    num, den = _numerator_and_distance(fp, sp, sd)
    if i == j:
        coincide = s[:, None] == t[None, :]
        out = ctx.orientation(j) * num / np.where(coincide, 1.0, den)
        return np.where(coincide, _diagonal_values(ctx, j, t)[None, :], out)
    _check_separated(ctx, i, j, t, s, den)
    return ctx.orientation(j) * num / den


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


def corner_remainder_limit(ctx: KernelContext, i: int, j: int) -> float:
    """Corner value M(0, 0) of the bounded remainder on a Mellin pair.

    Taken as the limit of M(t, 0) for t -> 0+, where the wedge kernel
    vanishes and the double-layer kernel tends to the curvature value of
    the source arc at the corner.
    """
    ctx.pair_chi(i, j)  # validates the pair
    return float(_diagonal_values(ctx, j, np.array([0.0]))[0])


def remainder_block(ctx: KernelContext, i: int, j: int,
                    t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Remainder matrix M[l, h] = (K - L)(t[h], s[l]) on a Mellin pair.

    The corner node pair t = s = 0, where K and L are both singular,
    takes corner_remainder_limit; every other entry is checked for
    coincident points as in double_layer_block.
    """
    chi = ctx.pair_chi(i, j)
    t = np.atleast_1d(np.asarray(t, float))
    s = np.atleast_1d(np.asarray(s, float))
    corner_pair = (s[:, None] == 0.0) & (t[None, :] == 0.0)
    fp, _, _ = subarc_eval(ctx.dec, i, s)
    sp, sd, _ = subarc_eval(ctx.dec, j, t)
    num, den = _numerator_and_distance(fp, sp, sd)
    den = np.where(corner_pair, np.inf, den)
    _check_separated(ctx, i, j, t, s, den)
    wedge = mellin_kernel(chi, np.where(corner_pair, 1.0, t[None, :]), s[:, None])
    out = ctx.orientation(j) * num / den - wedge
    out[corner_pair] = corner_remainder_limit(ctx, i, j)
    return out


def mellin_corner_coefficient(chi: float) -> float:
    """Corner row value of the wedge block per unit corner density.

    On the constrained space (equal corner values on the two corner
    arcs) the literal row at s = 0 and the s -> 0+ limit of the row both
    equal -chi pi times the corner value, so the whole block row enters
    assembly through this single coefficient.
    """
    _check_chi(chi)
    return -chi * math.pi


def field_kernel(ctx: KernelContext, i: int, x: float, y: float, t) -> np.ndarray:
    """Exterior-field double-layer kernel H_i(x, y, t) on sub-arc i.

    Raw formula in the sub-arc derivatives: reversing the arc flips the
    sign.  The exterior evaluator applies the orientation factor when it
    sums over arcs.
    """
    t = np.atleast_1d(np.asarray(t, float))
    sp, sd, _ = subarc_eval(ctx.dec, i, t)
    return field_kernel_at(x, y, sp, sd, np.full(len(t), i))


def field_kernel_at(x: float, y: float, sp: np.ndarray, sd: np.ndarray,
                    subarc: np.ndarray) -> np.ndarray:
    """field_kernel at source points sp with sub-arc derivatives sd
    (shape (H, 2) each), where source h lies on sub-arc subarc[h].

    Raises, naming the first such sub-arc, when (x, y) is within 1e-12
    of a source point.
    """
    num, den = _numerator_and_distance(np.array([[x, y]], float), sp, sd)
    near = den[0] < _FIELD_DISTANCE_TOL**2
    if near.any():
        raise ExteriorDomainError(
            f"field point ({x}, {y}) within {_FIELD_DISTANCE_TOL} "
            f"of sub-arc {subarc[int(near.argmax())]}"
        )
    return (num / den)[0]
