"""Quadrature rules on [0, 1] and logarithmic Legendre moments.

Two rule families are provided: Gauss-Legendre with m nodes (exact to
degree 2m-1) and the left Gauss-Radau rule with m+1 nodes, one of them
fixed at 0 (exact to degree 2m, endpoint weight 1/(m+1)^2).  Both are
built directly on [0, 1] via the symmetric tridiagonal Jacobi-matrix
eigenproblem, so callers never rescale from [-1, 1].

The module also tabulates the orthonormal shifted Legendre polynomials
p_nu(x) = sqrt(2 nu + 1) P_nu(2x - 1) at the nodes of a rule, and gives
their logarithmic moments

    c_nu(s) = int_0^1 p_nu(z) log|z - s| dz,

needed by the product-integration rule for single-layer integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ParameterError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_radau_left",
    "legendre_table",
    "log_moments",
]

MAX_RULE_ORDER = 4096
MAX_MOMENTS = 512


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of a rule on [0, 1].

    kind is "legendre" (m nodes) or "radau_left" (m+1 nodes, nodes[0] = 0).
    Nodes are strictly increasing in [0, 1); weights are positive and sum
    to 1 within 1e-14.
    """

    kind: str
    m: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        n_expected = self.m if self.kind == "legendre" else self.m + 1
        if len(self.nodes) != n_expected or len(self.weights) != n_expected:
            raise ParameterError(f"{self.kind} rule of order {self.m}: bad length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ParameterError("nodes must be strictly increasing")
        if self.nodes[0] < 0 or self.nodes[-1] >= 1.0:
            raise ParameterError("nodes must lie in [0, 1)")
        if not np.all(self.weights > 0):
            raise ParameterError("weights must be positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-14:
            raise ParameterError("weights must sum to 1 within 1e-14")
        if self.kind == "radau_left":
            if self.nodes[0] != 0.0:
                raise ParameterError("left Radau rule must have a node at 0")
            if self.weights[0] != 1.0 / (self.m + 1) ** 2:
                raise ParameterError("left Radau endpoint weight must be 1/(m+1)^2")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _check_order(m: int) -> None:
    if not isinstance(m, (int, np.integer)) or not 1 <= m <= MAX_RULE_ORDER:
        raise ParameterError(f"rule order must be an integer in [1, {MAX_RULE_ORDER}], got {m!r}")


@lru_cache(maxsize=None)
def gauss_legendre(m: int) -> QuadratureRule:
    """Gauss-Legendre rule with m nodes on [0, 1], exact to degree 2m-1."""
    _check_order(m)
    # monic Legendre recurrence mapped to [0, 1]: a_k = 1/2, b_k = k^2/(4(4k^2-1))
    k = np.arange(1, m)
    offdiag = np.sqrt(k * k / (4.0 * k * k - 1.0)) / 2.0
    nodes, vecs = eigh_tridiagonal(np.full(m, 0.5), offdiag)
    weights = vecs[0] ** 2  # mu_0 = 1
    return QuadratureRule("legendre", m, nodes, weights)


@lru_cache(maxsize=None)
def gauss_radau_left(m: int) -> QuadratureRule:
    """Left Gauss-Radau rule: m+1 nodes on [0, 1) with nodes[0] = 0.

    Exact for polynomials of degree <= 2m.  The endpoint weight is set to
    the closed form 1/(m+1)^2; the interior nodes are the Gauss nodes for
    the weight function x on [0, 1] and carry weights omega_h / x_h.
    """
    _check_order(m)
    # Jacobi matrix for weight x on [0, 1] (Jacobi(0,1) mapped from [-1, 1])
    k = np.arange(m)
    diag = (1.0 / ((2 * k + 1) * (2 * k + 3)) + 1.0) / 2.0
    kk = np.arange(1, m)
    offdiag = np.sqrt(kk * (kk + 1)) / (2.0 * (2 * kk + 1))
    interior, vecs = eigh_tridiagonal(diag, offdiag)
    omega = 0.5 * vecs[0] ** 2  # mu_0 = int_0^1 x dx = 1/2
    nodes = np.concatenate(([0.0], interior))
    weights = np.concatenate(([1.0 / (m + 1) ** 2], omega / interior))
    return QuadratureRule("radau_left", m, nodes, weights)


def legendre_table(nmax: int, x: np.ndarray) -> np.ndarray:
    """Table of p_0 .. p_{nmax-1} on [0, 1]; shape (nmax, len(x))."""
    t = 2.0 * np.asarray(x, dtype=float) - 1.0
    out = np.empty((nmax, t.size))
    out[0] = 1.0
    if nmax > 1:
        p_prev, p_cur = np.ones_like(t), t
        out[1] = np.sqrt(3.0) * t
        for k in range(2, nmax):
            p_prev, p_cur = p_cur, ((2 * k - 1) * t * p_cur - (k - 1) * p_prev) / k
            out[k] = np.sqrt(2 * k + 1) * p_cur
    return out


def log_moments(s, M: int) -> np.ndarray:
    """Moments c_0(s) .. c_{M-1}(s) of log|z - s| against p_nu on [0, 1].

    s is a float or a 1-D array; a float gives shape (M,), an array one
    row of moments per abscissa, shape (len(s), M).

    c_0 has the elementary antiderivative s log s + (1-s) log(1-s) - 1.
    For nu >= 1 the moments follow from the Legendre functions of the
    second kind on the cut, Q_n(y) with y = 2s - 1:

        c_nu(s) = (Q_{nu+1}(y) - Q_{nu-1}(y)) / sqrt(2 nu + 1),

    with Q_n generated by the forward recurrence from Q_0 = atanh(y).
    The endpoints s = 0, 1 use the one-sided closed forms
    c_nu = -sqrt(2 nu + 1) / (nu (nu + 1)) up to the sign (-1)^(nu-1) at 0.
    """
    if not 1 <= M <= MAX_MOMENTS:
        raise ParameterError(f"moment count must be in [1, {MAX_MOMENTS}], got {M}")
    sv = np.atleast_1d(np.asarray(s, float))
    outside = ~((sv >= 0.0) & (sv <= 1.0))
    if np.any(outside):
        raise ParameterError(f"moment abscissa must lie in [0, 1], got {sv[outside][0]}")
    c = np.empty((sv.size, M))
    nu = np.arange(1, M)
    root = np.sqrt(2 * nu + 1)
    at0, at1 = sv == 0.0, sv == 1.0
    c[at0 | at1, 0] = -1.0
    c[at0, 1:] = root * (-1.0) ** (nu - 1) / (nu * (nu + 1))
    c[at1, 1:] = -root / (nu * (nu + 1))
    rows = np.flatnonzero(~(at0 | at1))
    si = sv[rows]
    y = 2.0 * si - 1.0
    c[rows, 0] = si * np.log(si) + (1.0 - si) * np.log(1.0 - si) - 1.0
    # the recurrence keeps only Q_(n-2) and Q_(n-1) and writes each moment
    # into its column as it goes, so c is its only n x M array
    q0 = np.arctanh(y)
    q1 = y * q0 - 1.0
    for n in range(2, M + 1):
        q2 = ((2 * n - 1) * y * q1 - (n - 1) * q0) / n
        c[rows, n - 1] = (q2 - q0) / root[n - 2]
        q0, q1 = q1, q2
    return c if np.ndim(s) else c[0]
