"""Right-hand side: single-layer logarithmic integrals of the Neumann datum.

gbar(P) = int_Sigma f(Q) log|P - Q| dSigma_Q is computed at boundary points
P = sigma_ell(s) given by macro arc and parameter; the self-arc integral
splits the kernel as

    log|sig_l(s) - sig_l(t)| = log|t - s| + delta_l(t, s),

where delta_l is the cancellation-safe chord/parameter log ratio; the
log|t - s| part is integrated with the product rule built on the
logarithmic Legendre moments, everything else with plain
Gauss-Legendre of order M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .geometry import Boundary, as_complex
from .quadrature import MAX_MOMENTS, MAX_RULE_ORDER, gauss_legendre, legendre_table, log_moments

__all__ = ["NeumannDatum", "single_layer_sources", "rhs_approx"]

_EPS_BRANCH = 8.0 * np.finfo(float).eps
_COMPATIBILITY_TOL = 1e-8
_COMPATIBILITY_RULE = 256  # first rule order of the flux integral, doubled up to MAX_RULE_ORDER
_CONVERGED = 1e-9  # two successive flux sums that agree this well have converged
_CHORD_CHUNK = 256


@dataclass(frozen=True, eq=False)
class NeumannDatum:
    """Boundary flux datum f, the inward normal derivative of a potential
    given by its gradient u_grad, with its per-arc parameter density
    arc_density(k, t) = f(sigma_k(t)) |sigma_k'(t)|.  Construction checks
    the compatibility condition int_Sigma f dSigma = 0.
    """

    boundary: Boundary
    u_grad: Callable

    def __post_init__(self):
        resid = self.compatibility_residual()
        if abs(resid) > _COMPATIBILITY_TOL:
            raise ParameterError(
                f"Neumann datum violates the zero-flux compatibility condition: "
                f"integral = {resid:.3e}"
            )

    def arc_density(self, k: int, t):
        """Parameter-space density f(sigma_k(t)) |sigma_k'(t)|: the cross
        product g_y x' - g_x y' of the gradient g with the tangent, the
        inward normal derivative times the speed."""
        arc, t = self.boundary.arcs[k], np.asarray(t, float)
        p = np.asarray(arc.position(t), float)
        d = np.asarray(arc.first_derivative(t), float)
        g = np.asarray(self.u_grad(p), float)
        return g[..., 1] * d[..., 0] - g[..., 0] * d[..., 1]

    def compatibility_residual(self) -> float:
        """int_Sigma f dSigma by Gauss-Legendre on every arc, the rule doubled
        from 256 points until two successive sums agree within 1e-9; raises
        ParameterError if they still do not at MAX_RULE_ORDER points."""
        n, last = _COMPATIBILITY_RULE, np.nan
        while n <= MAX_RULE_ORDER:
            rule = gauss_legendre(n)
            total = sum(float(rule.weights @ self.arc_density(k, rule.nodes))
                        for k in range(len(self.boundary.arcs)))
            if abs(total - last) <= _CONVERGED:
                return total
            n, last = 2 * n, total
        raise ParameterError(
            f"Neumann datum could not be integrated: its flux sums did not converge "
            f"by {MAX_RULE_ORDER} points per arc (last {last:.6e})"
        )


def _log_ratio(chord, gap, speed):
    """log(chord / gap), or its limit log(speed) within 8 machine epsilons
    of the diagonal, which avoids the cancellation of the raw quotient."""
    near = gap < _EPS_BRANCH
    return np.where(near, np.log(speed),
                    np.log(np.where(near, 1.0, chord) / np.where(near, 1.0, gap)))


def single_layer_sources(datum: NeumannDatum, n: int):
    """Sources of an n-point Gauss-Legendre single-layer sum over the
    boundary: the rule's positions on every macro arc, shape (arcs, n, 2),
    and the weighted datum densities w f_k |sigma_k'| there, (arcs, n)."""
    rule, arcs = gauss_legendre(n), datum.boundary.arcs
    points = np.stack([np.asarray(arc.position(rule.nodes), float) for arc in arcs])
    density = np.stack([rule.weights * datum.arc_density(k, rule.nodes)
                        for k in range(len(arcs))])
    return points, density


def rhs_approx(datum: NeumannDatum, M: int, ell, t) -> np.ndarray:
    """Product-rule approximation of gbar with the row's M-point rule at
    the boundary points sigma_ell(t), given as 1-D arrays of macro-arc
    indices ell and macro parameters t.  The rule is built once per call:
    the Gauss-Legendre nodes x and, per macro arc k, the weighted density
    w f_k, its Legendre coefficients legendre_table(M, x) @ (w f_k), and
    the positions and speeds at x.  The points of each macro arc get the
    plain Gauss-Legendre log sums over the other arcs, and the log moments
    and the chord-ratio sum over their own arc."""
    if not 1 <= M <= MAX_MOMENTS:
        raise ParameterError(f"rhs rule order must be in [1, {MAX_MOMENTS}], got {M}")
    arcs, x = datum.boundary.arcs, gauss_legendre(M).nodes
    points, densities = single_layer_sources(datum, M)
    points = as_complex(points)
    coef = densities @ legendre_table(M, x).T
    speeds = np.linalg.norm(np.stack(
        [np.asarray(arc.first_derivative(x), float) for arc in arcs]), axis=-1)
    ell, t = np.asarray(ell), np.asarray(t, float)
    out = np.empty(len(t))
    for m, arc in enumerate(arcs):
        own = np.flatnonzero(ell == m)
        s = t[own]
        base = as_complex(arc.position(s))
        moments = log_moments(s, M) @ coef[m]  # its work arrays freed before the chords
        # _CHORD_CHUNK points at a time bound the chord arrays to that many rows
        for lo in range(0, len(own), _CHORD_CHUNK):
            pts = slice(lo, lo + _CHORD_CHUNK)
            acc = np.zeros(len(s[pts]))
            for k, density in enumerate(densities):
                chord = np.abs(points[k] - base[pts, None])
                if k == m:
                    ratio = _log_ratio(chord, np.abs(x - s[pts, None]), speeds[k])
                    acc += moments[pts] + ratio @ density
                else:
                    acc += np.log(chord) @ density
            out[own[pts]] = acc
    return out
