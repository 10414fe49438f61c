"""Right-hand side: single-layer logarithmic integrals of the Neumann datum.

gbar(P) = int_Sigma f(Q) log|P - Q| dSigma_Q is computed at the node
table's points P = sigma_ell(s), read with their macro arc and parameter;
the self-arc integral splits the kernel as

    log|sig_l(s) - sig_l(t)| = log|t - s| + delta_l(t, s),

where delta_l is the cancellation-safe chord/parameter log ratio; the
log|t - s| part is integrated with the product rule built on the
logarithmic Legendre moments, everything else with plain
Gauss-Legendre of order M.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .geometry import Boundary, as_complex
from .quadrature import MAX_RULE_ORDER, gauss_legendre, legendre_table, log_moments

__all__ = ["NeumannDatum", "rhs_approx"]

_EPS_BRANCH = 8.0 * np.finfo(float).eps
_COMPATIBILITY_TOL = 1e-8
_COMPATIBILITY_RULE = 256  # first rule order of the flux integral, doubled up to MAX_RULE_ORDER
_CONVERGED = 1e-9  # two successive flux sums that agree this well have converged
_CHORD_CHUNK = 256

DatumRule = namedtuple("DatumRule", "nodes points speeds density")


@dataclass(frozen=True, eq=False)
class NeumannDatum:
    """Boundary flux datum f, the inward normal derivative of a potential
    given by its gradient u_grad, taken on Gauss-Legendre rules of the
    macro arcs by sources(n).  Construction checks the compatibility
    condition int_Sigma f dSigma = 0.
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

    def sources(self, n: int) -> DatumRule:
        """The datum on the n-point Gauss-Legendre rule of every macro arc,
        from one position and one first_derivative call per arc: the rule's
        nodes, its positions, shape (arcs, n, 2), the speeds |sigma_k'| and
        the weighted densities w f_k |sigma_k'|, both (arcs, n).  The density
        is the cross product g_y x' - g_x y' of the gradient g with the
        tangent, the inward normal derivative times the speed."""
        rule, arcs = gauss_legendre(n), self.boundary.arcs
        points = np.stack([np.asarray(arc.position(rule.nodes), float) for arc in arcs])
        d = np.stack([np.asarray(arc.first_derivative(rule.nodes), float) for arc in arcs])
        g = np.asarray(self.u_grad(points), float)
        density = rule.weights * (g[..., 1] * d[..., 0] - g[..., 0] * d[..., 1])
        return DatumRule(rule.nodes, points, np.linalg.norm(d, axis=-1), density)

    def compatibility_residual(self) -> float:
        """int_Sigma f dSigma by Gauss-Legendre on every arc, the rule doubled
        from 256 points until two successive sums agree within 1e-9; raises
        ParameterError if they still do not at MAX_RULE_ORDER points."""
        n, last = _COMPATIBILITY_RULE, np.nan
        while n <= MAX_RULE_ORDER:
            total = float(self.sources(n).density.sum())
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


def rhs_approx(rule: DatumRule, umap) -> np.ndarray:
    """Product-rule approximation of gbar with the row's M-point datum rule
    (NeumannDatum.sources(M)) at every row of the node table umap, given by
    its macro arc macro_arc, macro parameter macro_t and position points.
    The rule's densities w f_k give, per macro arc k, the Legendre
    coefficients legendre_table(M, x) @ (w f_k) at its nodes x.  The rows
    of each macro arc get the plain Gauss-Legendre log sums over the other
    arcs, and the log moments and the chord-ratio sum over their own arc."""
    x, points, speeds, densities = rule
    M, points = len(x), as_complex(points)
    coef = densities @ legendre_table(M, x).T
    ell, t, nodes = umap.macro_arc, umap.macro_t, as_complex(umap.points.T)
    out = np.empty(len(t))
    for m in range(len(points)):
        own = np.flatnonzero(ell == m)
        s, base = t[own], nodes[own]
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
