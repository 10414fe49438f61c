"""Right-hand side: single-layer logarithmic integrals of the Neumann datum.

gbar_i(s) = int_Sigma f(Q) log|sigma_i(s) - Q| dSigma_Q is computed on
the macro arcs.  The self-arc integral splits the kernel as

    log|sig_l(s) - sig_l(t)| = log|t - s| + delta_l(t, s),

where delta_l is the cancellation-safe chord/parameter log ratio; the
log|t - s| part is integrated with the product rule built on the
logarithmic Legendre moments, everything else with plain
Gauss-Legendre of order M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .geometry import Boundary, Decomposition, macro_param_of
from .kernels import as_complex
from .quadrature import MAX_MOMENTS, gauss_legendre, legendre_table, log_moments

__all__ = [
    "NeumannDatum",
    "normal_derivative",
    "RhsRule",
    "rhs_approx",
]

_EPS_BRANCH = 8.0 * np.finfo(float).eps
_COMPATIBILITY_TOL = 1e-8
_COMPATIBILITY_RULE = 256


def normal_derivative(u_grad: Callable, boundary: Boundary, ell: int, t):
    """Inward normal derivative of a potential on macro arc ell.

    The inward unit normal of a counterclockwise boundary is
    (-eta', xi') / |sigma'|.
    """
    t = np.asarray(t, float)
    arc = boundary.arcs[ell]
    p = np.asarray(arc.position(t), float)
    d = np.asarray(arc.first_derivative(t), float)
    g = np.asarray(u_grad(p), float)
    out = (-g[..., 0] * d[..., 1] + g[..., 1] * d[..., 0]) / np.linalg.norm(d, axis=-1)
    return out if out.ndim else float(out)


@dataclass(frozen=True, eq=False)
class NeumannDatum:
    """Boundary flux datum f with its per-arc parameter density.

    Either a pointwise boundary function f or the gradient of an exact
    potential may back the datum; arc_density(k, t) always returns
    f(sigma_k(t)) |sigma_k'(t)|.  Construction checks the compatibility
    condition int_Sigma f dSigma = 0 with a 256-point rule per arc;
    check_compatibility=False skips it for data that are not meant to
    feed the solvability-constrained problem.
    """

    boundary: Boundary
    f: Optional[Callable] = None
    u_grad: Optional[Callable] = None
    check_compatibility: bool = True

    def __post_init__(self):
        if (self.f is None) == (self.u_grad is None):
            raise ParameterError("provide exactly one of f or u_grad")
        if not self.check_compatibility:
            return
        resid = self.compatibility_residual()
        if abs(resid) > _COMPATIBILITY_TOL:
            raise ParameterError(
                f"Neumann datum violates the zero-flux compatibility condition: "
                f"integral = {resid:.3e}"
            )

    def f_value(self, k: int, t):
        """Datum value f at sigma_k(t)."""
        if self.u_grad is not None:
            return normal_derivative(self.u_grad, self.boundary, k, t)
        p = np.asarray(self.boundary.arcs[k].position(np.asarray(t, float)), float)
        return self.f(p)

    def arc_density(self, k: int, t):
        """Parameter-space density f(sigma_k(t)) |sigma_k'(t)|."""
        t = np.asarray(t, float)
        d = np.asarray(self.boundary.arcs[k].first_derivative(t), float)
        return self.f_value(k, t) * np.linalg.norm(d, axis=-1)

    def compatibility_residual(self) -> float:
        rule = gauss_legendre(_COMPATIBILITY_RULE)
        total = 0.0
        for k in range(len(self.boundary.arcs)):
            total += float(rule.weights @ self.arc_density(k, rule.nodes))
        return total


def _log_ratio(chord, gap, speed):
    """log(chord / gap), or its limit log(speed) within 8 machine epsilons
    of the diagonal, which avoids the cancellation of the raw quotient."""
    near = gap < _EPS_BRANCH
    return np.where(near, np.log(speed),
                    np.log(np.where(near, 1.0, chord) / np.where(near, 1.0, gap)))


class RhsRule:
    """The M-point product rule of one row, built once: the Gauss-Legendre
    nodes x and, per macro arc k, the weighted density w f_k, its
    Legendre coefficients legendre_table(M, x) @ (w f_k), and the
    positions and speeds at x."""

    def __init__(self, dec: Decomposition, datum: NeumannDatum, M: int):
        if not 1 <= M <= MAX_MOMENTS:
            raise ParameterError(f"rhs rule order must be in [1, {MAX_MOMENTS}], got {M}")
        rule, arcs = gauss_legendre(M), dec.boundary.arcs
        x = rule.nodes
        self.dec, self.M, self.nodes = dec, M, x
        self.density = np.stack([rule.weights * datum.arc_density(k, x) for k in range(len(arcs))])
        self.coef = self.density @ legendre_table(M, x).T
        self.points = np.stack([as_complex(np.asarray(arc.position(x), float)) for arc in arcs])
        self.speeds = np.linalg.norm(
            np.stack([np.asarray(arc.first_derivative(x), float) for arc in arcs]), axis=-1)


def rhs_approx(rule: RhsRule, i: int, s):
    """Product-rule approximation of gbar_i(s) with the row's rule at a float
    s (giving a float) or 1-D array of parameters on sub-arc i, each mapped
    to its macro arc (ell, s_macro): plain Gauss-Legendre log sums over the
    other arcs, log moments and the chord-ratio sum over the self arc."""
    ell, sm = macro_param_of(rule.dec, i, np.atleast_1d(np.asarray(s, float)))
    base = as_complex(np.asarray(rule.dec.boundary.arcs[ell].position(sm), float))
    out = np.zeros(len(sm))
    for k, density in enumerate(rule.density):
        chord = np.abs(rule.points[k] - base[:, None])
        if k == ell:
            ratio = _log_ratio(chord, np.abs(rule.nodes - sm[:, None]), rule.speeds[k])
            out += log_moments(sm, rule.M) @ rule.coef[k] + ratio @ density
        else:
            out += np.log(chord) @ density
    return out if np.ndim(s) else float(out[0])
