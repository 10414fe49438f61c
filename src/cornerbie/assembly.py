"""Collocated Nystrom system for the corner-domain boundary equation.

The boundary equation (-pi I + Ltilde + K) ubar = gbar is collocated at
the left-Radau quadrature nodes of every sub-arc: order mu on the short
corner arcs, order nu on the central arcs.  Rows and columns are indexed
arc-major by node; the two corner arcs of each corner share their s = 0
node, so their unknown columns are merged and the duplicate corner
collocation row (the upsilon one) is dropped, giving a square system of
dimension n (2 mu + nu + 3) - n.

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
    double_layer_block,
    mellin_chi,
    mellin_corner_coefficient,
    mellin_kernel,
    remainder_block,
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
    over every node arc-major; sub-arc i owns bounds[i]:bounds[i + 1]."""

    dec: Decomposition
    params: DiscretizationParams
    nodes: List[np.ndarray] = field(init=False)
    weights: List[np.ndarray] = field(init=False)
    geometry: List[ArcNodes] = field(init=False)
    bounds: np.ndarray = field(init=False)
    all_points: np.ndarray = field(init=False)
    all_derivs: np.ndarray = field(init=False)
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
        self.geometry = [arc_nodes(sub, t, *subarc_eval(dec, i, t))
                         for i, (sub, t) in enumerate(zip(dec.subarcs, self.nodes))]
        self.bounds = np.cumsum([0] + [len(t) for t in self.nodes])
        self.all_points = np.concatenate([g.points for g in self.geometry])
        self.all_derivs = np.concatenate([g.derivs for g in self.geometry])
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


def _add_arc_rows(rows: np.ndarray, umap: UnknownMap, i: int, h) -> None:
    """Add the collocation rows of sub-arc i at the nodes that h selects
    into rows, which has one row per selected node and the reduced columns.

    Each row is the -pi identity on the node's own column plus, per
    source arc j, the kernel block times the Radau weights; on Mellin
    pairs the block is the bounded remainder plus the modified wedge
    rows, whose corner coefficient lands on the merged corner column.
    """
    fld, scale = umap.geometry[i].take(h), umap.dec.scale
    rows[np.arange(len(fld.t)), umap.col_index[i][h]] += -math.pi
    for j, src in enumerate(umap.geometry):
        cols = umap.col_index[j]
        chi = mellin_chi(umap.dec, i, j)
        if chi is None:
            rows[:, cols] += double_layer_block(fld, src, scale) * umap.weights[j]
            continue
        wedge, corner_coeff = modified_wedge_rows(chi, src.t, fld.t, umap.params.tau)
        block = remainder_block(fld, src, chi, scale) + wedge
        rows[:, cols] += block * umap.weights[j]
        rows[:, umap.corner_col[i // 3]] += corner_coeff


def build_system(dec: Decomposition, params: DiscretizationParams,
                 rhs_provider: Callable[[int, np.ndarray], np.ndarray]) -> DenseSystem:
    """Assemble the collocated system A a = b on the reduced unknowns.

    rhs_provider(i, s) is called once per sub-arc i with the 1-D array s
    of its collocation parameters (the kept rows) and must return the
    values gbar_i(s) as an array of the same length.
    """
    umap = UnknownMap(dec, params)
    A = np.zeros((umap.reduced_size, umap.reduced_size))
    b = np.zeros(umap.reduced_size)
    for i in range(dec.n_subarcs):
        keep = umap.row_index[i] >= 0
        rows = umap.row_index[i][keep]
        # an arc's kept rows are consecutive, so the slice is a view of A
        span = slice(rows[0], rows[-1] + 1)
        _add_arc_rows(A[span], umap, i, keep)
        b[span] = rhs_provider(i, umap.nodes[i][keep])

    if not np.all(np.isfinite(A)):
        bad = np.argwhere(~np.isfinite(A))[0]
        raise AssemblyError(f"non-finite matrix entry at reduced index {tuple(bad)}")
    if not np.all(np.isfinite(b)):
        bad = int(np.nonzero(~np.isfinite(b))[0][0])
        raise AssemblyError(f"non-finite right-hand side entry at reduced row {bad}")
    return DenseSystem(A, b, umap)
