"""Collocated Nystrom system for the corner-domain boundary equation.

The boundary equation (-pi I + Ltilde + K) ubar = gbar is collocated at
the left-Radau quadrature nodes of every sub-arc: order mu on the short
corner arcs, order nu on the central arcs.  The two corner arcs of each
corner share their s = 0 node, which is one unknown with one equation, so
the node table keeps it once and the system is square of dimension
n (2 mu + nu + 3) - n.  Row r and column r of the matrix are table row r,
so the weighted kernel between all node pairs is written into the matrix
a few rows at a time, and -pi I with the self terms on the diagonal and the
wedge terms are added once.

The wedge blocks are assembled in modified form: for collocation points
below the threshold tau = min(1, c / nu^(2 - 2 eps)) the row is the
linear blend of the discrete row at tau and the exact corner row, which
is the single coefficient -chi pi on the corner node's column.  The
(-pi + angle) diagonal term never appears explicitly: it vanishes for
s > 0 and is already inside the corner coefficient at s = 0.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor
from scipy.linalg.lapack import dgetri, dgetri_lwork

from .errors import AssemblyError, ParameterError, SingularMatrixError
from .geometry import CENTRAL, GAMMA, UPSILON, Decomposition
from .kernels import check_separation, double_layer, mellin_kernel
from .quadrature import gauss_radau_left

__all__ = [
    "DiscretizationParams",
    "UnknownMap",
    "DenseSystem",
    "build_system",
]

_PIVOT_TOL = 1e-14
_CHUNK_ENTRIES = 2 ** 15  # entries per chunk of the kernel grid or an in-place product
_BASE = 128  # rows up to which _invert runs LU and getri
_LOW_RANK_TOL = 1e-14  # off-diagonal compression tolerance, relative to |A|_inf
_SKETCH = 64  # first sketch width of an off-diagonal block
_RANK_CAP = 8  # a sketch wider than 1/8 of its block's rows ends compression
_PROBES = 8  # random probe vectors per check
_PROBE_TOL = 1e-12  # largest |A X w - w|_inf / |w|_inf a block inverse X may leave


@dataclass(frozen=True)
class DiscretizationParams:
    """Rule orders and wedge-modification constants.

    mu is the corner-arc rule order and nu the central-arc one, with
    1 <= mu < nu; a boundary without corners never reads mu.  The blend
    threshold is tau = min(1, c / nu^(2 - 2 eps)), and tau^2 must not
    underflow.
    """

    mu: int
    nu: int
    c: float
    eps: float

    def __post_init__(self):
        if not 1 <= self.mu < self.nu:
            raise ParameterError(f"need 1 <= mu < nu, got mu={self.mu}, nu={self.nu}")
        if not self.c > 0.0:  # NaN too
            raise ParameterError(f"blend constant must be positive, got {self.c}")
        if not 0.0 < self.eps < 0.5:
            raise ParameterError(f"blend exponent must be in (0, 1/2), got {self.eps}")
        if self.tau * self.tau == 0.0:
            # the wedge kernel at (0, tau) divides by tau^2
            raise ParameterError(f"blend threshold tau = {self.tau:.3e} is too small: "
                                 f"tau^2 underflows to 0")

    @property
    def tau(self) -> float:
        return min(1.0, self.c / self.nu ** (2.0 - 2.0 * self.eps))


@dataclass
class UnknownMap:
    """The node table: one row per unknown, arc-major, so that table row r
    is matrix row r and column r.  Each row holds its node's sub-arc arc
    and parameter t, macro arc macro_arc and parameter macro_t there (the
    sub-arc's window map), weight w, position points, weighted tangent
    q = w L sigma' and weighted diagonal kernel value diagonal = w times
    the curvature value of L sigma' and L^2 sigma'', L the window length
    and sigma the macro arc at macro_t, which each macro arc's callables
    give once for all its rows; both follow the boundary's counterclockwise
    orientation.  The s = 0 node of each upsilon arc is its gamma partner's
    node, the corner point: its q and diagonal are added onto that node's
    and it has no row of its own; corner[k] is the row of corner k's node.
    points and q are (2, m) arrays of x and y rows; sub-arc i owns the rows
    bounds[i]:bounds[i + 1] and was built on its full Radau rule, which on
    an upsilon arc also holds the t = 0 node."""

    dec: Decomposition
    params: DiscretizationParams
    bounds: np.ndarray = field(init=False)
    arc: np.ndarray = field(init=False)
    t: np.ndarray = field(init=False)
    macro_arc: np.ndarray = field(init=False)
    macro_t: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)
    points: np.ndarray = field(init=False)
    q: np.ndarray = field(init=False)
    diagonal: np.ndarray = field(init=False)
    corner: np.ndarray = field(init=False)

    def __post_init__(self):
        subs, params = self.dec.subarcs, self.params
        rules = [gauss_radau_left(params.nu if sub.kind == CENTRAL else params.mu)
                 for sub in subs]
        sizes = [len(rule.nodes) for rule in rules]
        arc = np.repeat(np.arange(len(subs)), sizes)
        macro_arc = np.repeat([sub.macro_index for sub in subs], sizes)
        t = np.concatenate([rule.nodes for rule in rules])
        w = np.concatenate([rule.weights for rule in rules])
        macro_t = np.concatenate([sub.macro_t(rule.nodes) for sub, rule in zip(subs, rules)])
        length = np.repeat([sub.b - sub.a for sub in subs], sizes)[:, None]
        p, d1, d2 = np.empty((3, len(t), 2))
        for ell, curve in enumerate(self.dec.boundary.arcs):
            rows = np.flatnonzero(macro_arc == ell)
            tm, scale = macro_t[rows], length[rows]
            p[rows] = curve.position(tm)
            d1[rows] = scale * curve.first_derivative(tm)
            d2[rows] = (scale * scale) * curve.second_derivative(tm)
        q = w * d1.T
        num = d1[:, 1] * d2[:, 0] - d1[:, 0] * d2[:, 1]
        diagonal = w * (0.5 * num / (d1 * d1).sum(-1))
        # the s = 0 node of each gamma arc is the stored corner point, and
        # each upsilon arc's s = 0 node folds into it
        starts, kinds = np.cumsum([0] + sizes), np.array([sub.kind for sub in subs])
        gamma, upsilon = starts[:-1][kinds == GAMMA], starts[:-1][kinds == UPSILON]
        for row, corner in zip(gamma, self.dec.boundary.corners):
            p[row] = corner.point
        q[:, gamma] += q[:, upsilon]
        diagonal[gamma] += diagonal[upsilon]
        keep = np.ones(len(t), bool)
        keep[upsilon] = False
        kept_before = np.concatenate([[0], np.cumsum(keep)])
        self.bounds, self.corner = kept_before[starts], kept_before[gamma]
        self.arc, self.t, self.w, self.diagonal = arc[keep], t[keep], w[keep], diagonal[keep]
        self.macro_arc, self.macro_t = macro_arc[keep], macro_t[keep]
        self.points, self.q = p[keep].T.copy(), q[:, keep]


def inf_norm(a: np.ndarray) -> float:
    """Largest absolute row sum of a, np.abs(a).sum(axis=1).max() bit for
    bit, with |a| formed over near-equal blocks of at most _CHUNK_ENTRIES // n
    rows: no block is a lone row, which numpy sums pairwise, not in the
    column order of a Fortran-ordered a."""
    rows = max(1, _CHUNK_ENTRIES // a.shape[1])
    return max(float(np.abs(block).sum(axis=1).max())
               for block in np.array_split(a, -(-len(a) // rows)))


def _lu_inverse(a: np.ndarray, norm_a: float) -> None:
    """Overwrite the C-ordered square a with its inverse: a.T is Fortran-
    ordered, so lu_factor and LAPACK getri invert A^T in its place, which
    needs a pivot of at least 1e-14 norm_a; raises SingularMatrixError.
    It inverts the smallest blocks of _invert and, as the fallback, a
    whole matrix."""
    with warnings.catch_warnings():
        # exact singularity is reported through SingularMatrixError below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a.T, overwrite_a=True, check_finite=True)
    pivots = np.abs(np.diag(lu))
    if norm_a == 0.0 or pivots.min() < _PIVOT_TOL * norm_a:
        raise SingularMatrixError(
            f"numerically singular pivot {pivots.min():.3e} (|A|_inf = {norm_a:.3e})"
        )
    _, info = dgetri(lu, piv, lwork=int(dgetri_lwork(len(lu))[0]), overwrite_lu=1)
    if info != 0:
        raise SingularMatrixError(f"getri failed with info = {info}")


def _compress(block: np.ndarray, tol: float, rng) -> tuple:
    """(Q, R) with orthonormal columns Q and Q R = block to tol: a randomized
    range finder (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011) truncated
    at the singular values of R above tol, its sketch doubled until random
    probes pass.  Raises LinAlgError once the sketch is wider than
    1/_RANK_CAP of the block's rows."""
    probe = rng.standard_normal((block.shape[1], _PROBES))
    image, width = block @ probe, _SKETCH
    while width <= len(block) // _RANK_CAP:
        q = np.linalg.qr(block @ rng.standard_normal((block.shape[1], width)))[0]
        u, s, vt = np.linalg.svd(q.T @ block, full_matrices=False)
        rank = int(np.count_nonzero(s > tol))
        q, r = q @ u[:, :rank], s[:rank, None] * vt[:rank]
        if np.abs(image - q @ (r @ probe)).max() <= tol * np.abs(probe).max():
            return q, r
        width *= 2
    raise np.linalg.LinAlgError("off-diagonal block does not compress")


def _product_into(store, dst: np.ndarray, left: np.ndarray, right: np.ndarray,
                  work: np.ndarray) -> None:
    """store(dst[k], (left @ right)[k]) over chunks k of dst's columns when
    dst is right, else of its rows, each product made in work: no product
    writes over one of its own inputs, and no step makes a temporary the
    size of dst."""
    by_columns = dst is right
    step = max(1, _CHUNK_ENTRIES // (len(dst) if by_columns else dst.shape[1]))
    for i in range(0, dst.shape[by_columns], step):
        k = (slice(None), slice(i, i + step)) if by_columns else slice(i, i + step)
        chunk, factors = dst[k], (left, right[k]) if by_columns else (left[k], right)
        store(chunk, np.matmul(*factors, out=work[:chunk.size].reshape(chunk.shape)))


def _invert(b: np.ndarray, norm_a: float, rng, work: np.ndarray) -> None:
    """Overwrite the square view b (any row stride) with its inverse; work,
    of _CHUNK_ENTRIES entries, is scratch.  With halves P Q / R S:

    - up to _BASE rows, _lu_inverse runs on a contiguous copy in work
      (_BASE^2 <= _CHUNK_ENTRIES);
    - below 2 _SKETCH _RANK_CAP rows, where _compress cannot start, block
      Gauss-Jordan (Higham, Accuracy and Stability of Numerical Algorithms,
      ch. 14) runs in place: P <- P^-1, Q <- P Q, S <- -(S - R Q)^-1,
      R <- S R P, P <- P - Q R, Q <- Q S, S <- -S.  It does not pivot across
      the halves: a singular P or Schur complement fails a base block's
      pivot check, and a loss of accuracy the caller's probe;
    - above, Q = U_1 V_1 and R = U_2 V_2 are compressed while they still
      hold the matrix, P and S are inverted in place into X_1 and X_2, and
      the inverse is X_1 (+) X_2 plus the Woodbury term -Y C^-1 Z, where
      Y = X_i U_i, Z = V_i X_j and C = I + V_i Y_j (Martinsson & Rokhlin,
      J. Comput. Phys. 205, 2005).  A block that does not compress raises
      LinAlgError."""
    m = len(b)
    if m <= _BASE:
        scratch = work[:m * m].reshape(m, m)
        scratch[...] = b
        _lu_inverse(scratch, norm_a)
        b[...] = scratch
        return
    h = m // 2
    p, q, r, s = b[:h, :h], b[:h, h:], b[h:, :h], b[h:, h:]
    if h < _SKETCH * _RANK_CAP:
        _invert(p, norm_a, rng, work)
        _product_into(np.copyto, q, p, q, work)
        _product_into(operator.isub, s, r, q, work)
        np.negative(s, out=s)
        _invert(s, norm_a, rng, work)
        _product_into(np.copyto, r, r, p, work)
        _product_into(np.copyto, r, s, r, work)
        _product_into(operator.isub, p, q, r, work)
        _product_into(np.copyto, q, q, s, work)
        np.negative(s, out=s)
        return
    u1, v1 = _compress(q, _LOW_RANK_TOL * norm_a, rng)
    u2, v2 = _compress(r, _LOW_RANK_TOL * norm_a, rng)
    _invert(p, norm_a, rng, work)
    _invert(s, norm_a, rng, work)
    y1, y2 = p @ u1, s @ u2
    del u1, u2  # each factor is freed once used, to bound the memory beyond b
    k1, k = len(v1), len(v1) + len(v2)
    c = np.eye(k)
    c[:k1, k1:] += v1 @ y2
    c[k1:, :k1] += v2 @ y1
    c_inv = -np.linalg.inv(c)
    t = np.empty((k, m))
    np.matmul(c_inv[:, k1:], v2 @ p, out=t[:, :h])
    np.matmul(c_inv[:, :k1], v1 @ s, out=t[:, h:])
    del v1, v2
    # the term adds to X_i's diagonal block and is the off-diagonal one
    q[...] = r[...] = 0.0
    _product_into(operator.iadd, b[:h], y1, t[:k1], work)
    _product_into(operator.iadd, b[h:], y2, t[k1:], work)


@dataclass
class DenseSystem:
    """Collocation matrix and unknown map.

    Besides its matrix the system holds one C-ordered n x n buffer, made
    on first use of inverse and shared by the condition number and solve:
    a copy of the matrix, which _invert overwrites with the inverse.  When
    a block does not compress, a pivot check fails or the result misses
    its probe, _lu_inverse inverts the whole matrix in the same buffer.
    """

    matrix: np.ndarray
    unknown_map: UnknownMap

    @cached_property
    def inverse(self):
        """(inv, norm_a): the explicit inverse of A and |A|_inf.

        Raises SingularMatrixError when a pivot falls below 1e-14 |A|_inf.
        """
        a = self.matrix
        norm_a = inf_norm(a)
        out = np.array(a, order="C")
        rng = np.random.default_rng(0)
        try:
            _invert(out, norm_a, rng, np.empty(_CHUNK_ENTRIES))
            # the probe residual |A X w - w|_inf must stay within _PROBE_TOL |w|_inf
            probe = rng.standard_normal((len(a), _PROBES))
            if np.abs(a @ (out @ probe) - probe).max() <= _PROBE_TOL * np.abs(probe).max():
                return out, norm_a
        except (SingularMatrixError, np.linalg.LinAlgError):
            pass
        out[...] = a
        _lu_inverse(out, norm_a)
        return out, norm_a


def _fill_rows(umap: UnknownMap, out: np.ndarray) -> None:
    """Write the collocation row of every node of the table into out.

    The sources are the same nodes.  The kernel grid goes straight into
    out, _CHUNK_ENTRIES // n rows at a time (14 at n = 2310, so that the
    chunk stays in cache) through two work arrays of that many rows;
    the self terms and the wedge rows are then added once for all rows.
    A node's kernel value on itself is its curvature value (at a corner,
    the remainder's limit along s = 0); the table's weighted diagonal and
    the -pi identity form the self term.  Other pairs closer than 1e-14
    times the node table's extent are rejected."""
    n, arc, t = len(umap.t), umap.arc, umap.t
    fx, fy = umap.points
    rows = max(1, _CHUNK_ENTRIES // n)
    work = np.empty((2, min(n, rows), n))
    scale = float(np.ptp(umap.points, axis=1).max())
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        self_pairs = (np.arange(hi - lo), np.arange(lo, hi))
        _, d2 = double_layer((fx[lo:hi], fy[lo:hi]), umap.points, umap.q, self_pairs,
                             out[lo:hi], work[:, :hi - lo])
        check_separation(d2, scale, (arc[lo:hi], t[lo:hi]), (arc, t))
    out[np.diag_indices(n)] += umap.diagonal - math.pi
    # on the Mellin pairs of corner k, its arcs 3k and 3k + 1 each with the
    # other as partner, the kernel K = L + M becomes M plus the modified
    # wedge: below tau, the row of L at s is the blend of its row at tau,
    # weighted s / tau, and the exact corner row, weighted (tau - s) / tau.
    # The corner row is -chi pi on the corner's column alone: on densities
    # equal on both corner arcs at the corner, the literal row at s = 0 and
    # the s -> 0+ limit of the row, int_0^1 L(t, s) dt, both give -chi pi
    # times the corner value.  So add (s/tau) L(t, tau) - L(t, s), with L = 0
    # at the corner pair, on the partner's weighted columns and
    # (tau - s)/tau (-chi pi) on the corner's column; rows at s >= tau keep
    # the plain kernel.  The partner's columns follow its full corner rule:
    # an upsilon partner's t = 0 node is the corner's row.
    tau = umap.params.tau
    for k, corner in enumerate(umap.dec.boundary.corners):
        for i, j in ((3 * k, 3 * k + 1), (3 * k + 1, 3 * k)):
            sel = umap.bounds[i] + np.flatnonzero(t[umap.bounds[i]:umap.bounds[i + 1]] < tau)
            cols = np.arange(umap.bounds[j], umap.bounds[j + 1])
            if j == 3 * k + 1:
                cols = np.r_[umap.corner[k], cols]
            s, tj = t[sel, None], t[cols]
            corner_pair = (s == 0.0) & (tj == 0.0)
            wedge = ((s / tau) * mellin_kernel(corner.chi, tj, tau)
                     - mellin_kernel(corner.chi, np.where(corner_pair, 1.0, tj), s))
            out[np.ix_(sel, cols)] += wedge * umap.w[cols]
            out[sel, umap.corner[k]] += (tau - t[sel]) / tau * (-corner.chi * math.pi)


def build_system(dec: Decomposition, params: DiscretizationParams) -> DenseSystem:
    """Assemble the matrix A of the collocated system A a = b; row r
    collocates at table row r, whose unknown is column r."""
    umap = UnknownMap(dec, params)
    A = np.empty((len(umap.t), len(umap.t)))
    _fill_rows(umap, A)
    if not np.all(np.isfinite(A)):
        bad = np.argwhere(~np.isfinite(A))[0]
        raise AssemblyError(f"non-finite matrix entry at index {tuple(bad)}")
    return DenseSystem(A, umap)
