"""Collocated Nystrom system for the corner-domain boundary equation.

The boundary equation (-pi I + Ltilde + K) ubar = gbar is collocated at
the left-Radau quadrature nodes of every sub-arc: order mu on the short
corner arcs, order nu on the central arcs.  Rows and columns are indexed
arc-major by node; the two corner arcs of each corner share their s = 0
node, so their unknown columns are merged and the duplicate corner
collocation row (the upsilon one) is dropped, giving a square system of
dimension n (2 mu + nu + 3) - n.  Reduced row r and column r are then the
same node, so the matrix is written 128 rows at a time as -pi I plus the
weighted kernel between all node pairs, with the wedge terms added.

The wedge blocks are assembled in modified form: for collocation points
below the threshold tau = min(1, c / nu^(2 - 2 eps)) the row is the
linear blend of the discrete row at tau and the exact corner row, which
is the single coefficient -chi pi on the merged corner column.  The
(-pi + angle) diagonal term never appears explicitly: it vanishes for
s > 0 and is already inside the corner coefficient at s = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor

from .errors import AssemblyError, ParameterError, SingularMatrixError
from .geometry import CENTRAL, GAMMA, UPSILON, Decomposition, subarc_eval
from .kernels import (
    ArcNodes,
    arc_nodes,
    as_complex,
    check_separation,
    double_layer,
    mellin_chi,
    mellin_corner_coefficient,
    mellin_kernel,
)
from .quadrature import gauss_radau_left

__all__ = [
    "DiscretizationParams",
    "UnknownMap",
    "DenseSystem",
    "modified_wedge_rows",
    "build_system",
]

_PIVOT_TOL = 1e-14
_CHUNK = 128  # rows per kernel grid, which bounds its temporaries to 128 x n


@dataclass(frozen=True)
class DiscretizationParams:
    """Rule orders and wedge-modification constants.

    mu is the corner-arc rule order, nu the central-arc one (mu < nu in
    corner runs; equality is only meaningful for boundaries without
    corners, where mu is unused).  The blend threshold is
    tau = min(1, c / nu^(2 - 2 eps)).
    """

    mu: int
    nu: int
    c: float
    eps: float

    def __post_init__(self):
        if not 1 <= self.mu <= self.nu:
            raise ParameterError(f"need 1 <= mu <= nu, got mu={self.mu}, nu={self.nu}")
        if self.c <= 0.0:
            raise ParameterError(f"blend constant must be positive, got {self.c}")
        if not 0.0 < self.eps < 0.5:
            raise ParameterError(f"blend exponent must be in (0, 1/2), got {self.eps}")

    @property
    def tau(self) -> float:
        return min(1.0, self.c / self.nu ** (2.0 - 2.0 * self.eps))


def modified_wedge_rows(chi: float, t_nodes: np.ndarray, s_values: np.ndarray,
                        tau: float):
    """Row coefficients of the modified wedge block.

    Returns (rows, corner_coeff): rows[l, h] multiplies the density value
    at node t_nodes[h] of the partner arc, corner_coeff[l] the merged
    corner unknown.  Rows with s >= tau are the plain kernel rows; below
    tau they blend the row at tau with the exact corner row value
    -chi pi, reaching it exactly at s = 0.
    """
    t_nodes = np.asarray(t_nodes, float)
    s_values = np.atleast_1d(np.asarray(s_values, float))
    rows = np.empty((len(s_values), len(t_nodes)))
    corner_coeff = np.zeros(len(s_values))
    hi = s_values >= tau
    rows[hi] = mellin_kernel(chi, t_nodes[None, :], s_values[hi][:, None])
    lo = ~hi
    row_at_tau = mellin_kernel(chi, t_nodes, tau)
    rows[lo] = (s_values[lo][:, None] / tau) * row_at_tau[None, :]
    corner_coeff[lo] = (tau - s_values[lo]) / tau * mellin_corner_coefficient(chi)
    return rows, corner_coeff


@dataclass
class UnknownMap:
    """Global indexing of the per-arc Radau nodes with corner merging,
    and their geometry, evaluated once per sub-arc.  The all_* arrays run
    over every node arc-major, positions and derivatives as x + iy;
    sub-arc i owns bounds[i]:bounds[i + 1]."""

    dec: Decomposition
    params: DiscretizationParams
    nodes: List[np.ndarray] = field(init=False)
    weights: List[np.ndarray] = field(init=False)
    geometry: List[ArcNodes] = field(init=False)
    bounds: np.ndarray = field(init=False)
    all_z: np.ndarray = field(init=False)
    all_dz: np.ndarray = field(init=False)
    all_weights: np.ndarray = field(init=False)
    col_index: List[np.ndarray] = field(init=False)
    row_index: List[np.ndarray] = field(init=False)  # -1 marks a dropped row
    corner_col: np.ndarray = field(init=False)
    reduced_size: int = field(init=False)

    def __post_init__(self):
        dec, params = self.dec, self.params
        if dec.n_corners > 0 and params.mu >= params.nu:
            raise ParameterError("corner runs require mu < nu")
        rules = [gauss_radau_left(params.nu if sub.kind == CENTRAL else params.mu)
                 for sub in dec.subarcs]
        self.nodes = [rule.nodes for rule in rules]
        self.weights = [rule.weights for rule in rules]
        self.geometry = [arc_nodes(sub, *subarc_eval(dec, i, t))
                         for i, (sub, t) in enumerate(zip(dec.subarcs, self.nodes))]
        self.bounds = np.cumsum([0] + [len(t) for t in self.nodes])
        self.all_z = as_complex(np.concatenate([g.points for g in self.geometry]))
        self.all_dz = as_complex(np.concatenate([g.derivs for g in self.geometry]))
        self.all_weights = np.concatenate(self.weights)
        # columns and rows run arc-major by node; the s = 0 node of an
        # upsilon arc takes its gamma partner's column and drops its row
        self.corner_col = np.full(dec.n_corners, -1, dtype=int)
        self.col_index, self.row_index = [], []
        nxt = 0
        for i, sub in enumerate(dec.subarcs):
            merged = sub.kind == UPSILON
            own = np.arange(nxt, nxt + len(self.nodes[i]) - merged)
            nxt += len(own)
            if sub.kind == GAMMA:
                self.corner_col[i // 3] = own[0]
            self.col_index.append(np.r_[self.corner_col[i // 3], own] if merged else own)
            self.row_index.append(np.r_[-1, own] if merged else own)
        self.reduced_size = nxt


@dataclass
class DenseSystem:
    """Reduced collocation matrix, right-hand side and unknown map.

    The system owns the one LU factorization of its matrix, computed on
    first use of lu_factors and shared by the condition number and the
    solve.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    unknown_map: UnknownMap

    @cached_property
    def lu_factors(self):
        """(lu, piv, norm_a): partial-pivoting LU factors and |A|_inf.

        Raises SingularMatrixError when a pivot falls below 1e-14 |A|_inf.
        """
        a = self.matrix
        norm_a = float(np.abs(a).sum(axis=1).max())
        with warnings.catch_warnings():
            # exact singularity is reported through SingularMatrixError below
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(a, check_finite=True)
        pivots = np.abs(np.diag(lu))
        if norm_a == 0.0 or pivots.min() < _PIVOT_TOL * norm_a:
            raise SingularMatrixError(
                f"numerically singular pivot {pivots.min():.3e} (|A|_inf = {norm_a:.3e})"
            )
        return lu, piv, norm_a


class _Rows:
    """Writer of the collocation rows of an unknown map at any of its
    nodes.  The sources are the reduced nodes in column order, then the
    merged upsilon s = 0 nodes, one per corner.  A field node coincides
    with the sources of its own column, where the kernel is the source's
    curvature value (at a corner, the remainder's limit along s = 0);
    those values and the -pi identity are summed into self_term."""

    def __init__(self, umap: UnknownMap):
        sizes = np.diff(umap.bounds)
        sign = np.repeat([g.sign for g in umap.geometry], sizes)
        curvature = np.concatenate([g.curvature for g in umap.geometry])
        self.umap = umap
        self.arc = np.repeat(np.arange(len(sizes)), sizes)
        self.t = np.concatenate(umap.nodes)
        self.col = np.concatenate(umap.col_index)
        # kept nodes first, then the dropped (merged) ones, in node order
        self.src = np.argsort(np.concatenate(umap.row_index) < 0, kind="stable")
        self.src_z = umap.all_z[self.src]
        self.src_q = (umap.all_weights * sign * umap.all_dz)[self.src]
        self.self_term = np.bincount(self.col, umap.all_weights * curvature,
                                     umap.reduced_size) - math.pi

    def fill(self, out: np.ndarray, f) -> None:
        """Write the rows at the nodes f (indices over all nodes) into out."""
        umap, n, f = self.umap, self.umap.reduced_size, np.asarray(f)
        arc, t, col, rows = self.arc[f], self.t[f], self.col[f], np.arange(len(f))
        merged = np.nonzero(col[:, None] == umap.corner_col[None, :])
        exempt = (np.r_[rows, merged[0]], np.r_[col, n + merged[1]])
        k, dist = double_layer(umap.all_z[f], self.src_z, self.src_q, exempt)
        check_separation(dist, umap.dec.scale, (arc, t), (self.arc[self.src], self.t[self.src]))
        out[:] = k[:, :n]
        out[:, umap.corner_col] += k[:, n:]
        out[rows, col] += self.self_term[col]
        # on a Mellin pair the partner's kernel becomes remainder plus
        # modified wedge: add (wedge - L) w, with L = 0 at the corner pair
        for i in np.unique(arc):
            j = i + 1 if umap.dec.subarcs[i].kind == GAMMA else i - 1
            chi = mellin_chi(umap.dec, i, j)
            if chi is not None:
                sel, tj = np.flatnonzero(arc == i), umap.nodes[j]
                wedge, corner_coeff = modified_wedge_rows(chi, tj, t[sel], umap.params.tau)
                corner_pair = (t[sel, None] == 0.0) & (tj == 0.0)
                wedge -= mellin_kernel(chi, np.where(corner_pair, 1.0, tj), t[sel, None])
                out[np.ix_(sel, umap.col_index[j])] += wedge * umap.weights[j]
                out[sel, umap.corner_col[i // 3]] += corner_coeff


def build_system(dec: Decomposition, params: DiscretizationParams,
                 rhs_provider: Callable[[int, np.ndarray], np.ndarray]) -> DenseSystem:
    """Assemble the collocated system A a = b on the reduced unknowns.

    rhs_provider(i, s) is called once per sub-arc i with the 1-D array s
    of its collocation parameters (the kept rows) and must return the
    values gbar_i(s) as an array of the same length.
    """
    umap = UnknownMap(dec, params)
    n = umap.reduced_size
    A, b = np.empty((n, n)), np.empty(n)
    rows = _Rows(umap)
    kept = rows.src[:n]  # reduced row r is the node of reduced column r
    for lo in range(0, n, _CHUNK):
        rows.fill(A[lo:lo + _CHUNK], kept[lo:lo + _CHUNK])
    for i in range(dec.n_subarcs):
        keep = umap.row_index[i] >= 0
        b[umap.row_index[i][keep]] = rhs_provider(i, umap.nodes[i][keep])

    if not np.all(np.isfinite(A)):
        bad = np.argwhere(~np.isfinite(A))[0]
        raise AssemblyError(f"non-finite matrix entry at reduced index {tuple(bad)}")
    if not np.all(np.isfinite(b)):
        bad = int(np.nonzero(~np.isfinite(b))[0][0])
        raise AssemblyError(f"non-finite right-hand side entry at reduced row {bad}")
    return DenseSystem(A, b, umap)
