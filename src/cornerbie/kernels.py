"""Double-layer kernels on the decomposed boundary.

The Nystrom blocks need the double-layer kernel between sub-arcs i
(field, parameter s) and j (source, parameter t); with z = xi + i eta,

    K(t, s) = Im(z_j'(t) / (z_i(s) - z_j(t)))
            = [eta_j' (xi_i - xi_j) - xi_j' (eta_i - eta_j)] / |z_i - z_j|^2,

its curvature-type diagonal value for i = j, t = s, and the splitting
K = L + M on the two sub-arcs flanking a corner, where

    L(t, s) = -s sin(chi pi) / (s^2 + 2 t s cos(chi pi) + t^2)

is the Mellin-type wedge kernel, with the corner's chi, whose range
geometry.Corner checks, and M is bounded.  The numerator of K is a
normal-times-speed factor, so it is taken with the boundary's
counterclockwise orientation: the source tangents passed in are the
weighted tangents of the unknown map's node table, which carry that
orientation on reversed (gamma) arcs too.  Without it the wedge
cancellation K - L fails on one of the two corner blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoincidentPointError, ParameterError

__all__ = [
    "double_layer",
    "check_separation",
    "mellin_kernel",
]

_COINCIDENCE_FACTOR = 1e-14


def double_layer(fld, src, q, exempt=None, out=None, work=None):
    """(k, d2) for field points fld = (x, y) and source points src with
    weighted tangents q = (qx, qy), each a pair of 1-D arrays:
    k[r, c] = Im(q_c / (z_r - w_c)) = (qy dx - qx dy) / (dx^2 + dy^2),
    with (dx, dy) the offset from source c to field point r, is the
    kernel K(t_c, s_r) times w_c for the counterclockwise q = w sigma' of
    UnknownMap; d2 = dx^2 + dy^2.  Exempt pairs (coincident nodes, whose
    value the caller supplies) get k = 0 and d2 = inf, and a pair at
    distance 0 that is not exempt gets a non-finite k; callers check d2
    before they use k.  The grid is
    written into out, and work holds two more arrays of its shape; both
    are allocated when not given, and d2 is work[0]."""
    (xf, yf), (xs, ys), (qx, qy) = fld, src, q
    if out is None:
        out = np.empty((len(xf), len(xs)))
    d2, num = work if work is not None else np.empty((2,) + out.shape)
    np.subtract(xf[:, None], xs, out=num)
    np.multiply(num, num, out=d2)
    np.subtract(yf[:, None], ys, out=num)
    np.multiply(num, qx, out=out)
    num *= num
    d2 += num
    np.subtract(xf[:, None], xs, out=num)
    num *= qy
    num -= out
    if exempt is not None:
        d2[exempt] = np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(num, d2, out=out)
    return out, d2


def check_separation(d2: np.ndarray, scale: float, fld, src) -> None:
    """Raise CoincidentPointError when a distance is below 1e-14 scale,
    which node placement rules out; d2 holds the squared distances, and
    fld and src are the (sub-arc, parameter) arrays of its rows and
    columns, to name the pair."""
    r, c = np.unravel_index(int(d2.argmin()), d2.shape)
    if d2[r, c] < (_COINCIDENCE_FACTOR * scale) ** 2:
        raise CoincidentPointError(f"sub-arcs {fld[0][r]}, {src[0][c]}: field "
                                   f"s={fld[1][r]} and source t={src[1][c]} coincide")


def mellin_kernel(chi: float, t, s):
    """Wedge (Mellin-type) kernel -s sin(chi pi)/(s^2 + 2ts cos(chi pi) + t^2).

    Raises ParameterError naming the first (t, s) where the denominator is
    0: at t = s = 0, or at t = s when cos(chi pi) rounds to -1 or 1."""
    t, s = np.asarray(t, float), np.asarray(s, float)
    den = s * s + 2.0 * t * s * math.cos(chi * math.pi) + t * t
    zero = den == 0.0
    if zero.any():
        at = np.unravel_index(int(zero.argmax()), den.shape)
        t0, s0 = (float(np.broadcast_to(a, den.shape)[at]) for a in (t, s))
        raise ParameterError(f"mellin kernel undefined at (t, s) = ({t0}, {s0}), "
                             f"chi = {chi}: zero denominator")
    out = -s * math.sin(chi * math.pi) / den
    return out if out.ndim else float(out)
