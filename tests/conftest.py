"""Shared fixtures: benchmark domains, cached table sweeps, oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

import cornerbie as cb
from cornerbie import ExteriorDomainError
from cornerbie.assembly import DiscretizationParams
from cornerbie.geometry import (
    CENTRAL,
    GAMMA,
    UPSILON,
    PointLocator,
    boundary_polyline,
    circle_arc,
    decompose,
    make_example_domain,
    make_polygon,
    make_smooth_boundary,
)
from cornerbie.kernels import check_separation, double_layer, mellin_kernel
from cornerbie.quadrature import gauss_legendre, gauss_radau_left
from cornerbie.rhs import NeumannDatum, rhs_approx

# every hypothesis test draws the same examples on every run and keeps no
# example database; each test sets its own max_examples
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# published reference values: per example, error cells for the evaluation
# points (nearest ... farthest) and the matrix condition number per row
REFERENCE_TABLES = {
    "heart": dict(
        cond=[133.5, 25.86, 18.37, 18.32, 18.32],
        errs=[[6.62e-03, 2.35e-05, 4.52e-05, 5.9e-05],
              [6.95e-03, 1.89e-04, 1.12e-05, 5.3e-06],
              [6.78e-04, 1.81e-05, 1.05e-06, 5.3e-07],
              [1.18e-05, 3.19e-07, 1.86e-08, 9.2e-09],
              [2.29e-06, 6.10e-08, 3.55e-09, 1.8e-09]],
    ),
    "teardrop": dict(
        cond=[6.67, 4.49, 4.16, 4.16, 4.17],
        errs=[[1.44e-03, 6.39e-04, 1.47e-03, 1.80e-03],
              [7.43e-06, 8.81e-06, 4.34e-06, 5.57e-06],
              [9.32e-08, 2.54e-07, 1.98e-08, 8.05e-09],
              [8.24e-08, 1.03e-08, 8.14e-10, 3.62e-10],
              [2.14e-08, 2.92e-09, 2.29e-10, 1.01e-10]],
    ),
    "boomerang": dict(
        cond=[19.13, 16.92, 16.92, 16.93, 16.93],
        errs=[[7.22e-03, 2.66e-04, 7.41e-06, 3.48e-05],
              [3.34e-04, 1.62e-05, 9.59e-07, 4.87e-07],
              [8.51e-05, 4.05e-06, 2.39e-07, 1.21e-07],
              [1.95e-05, 9.34e-07, 5.54e-08, 2.80e-08],
              [4.64e-06, 2.22e-07, 1.31e-08, 6.67e-09]],
    ),
    "triangle": dict(
        cond=[166.39, 66.18, 20.40, 9.11, 8.81],
        errs=[[7.11e-04, 1.33e-02, 1.79e-03, 2.93e-04],
              [9.83e-04, 2.78e-04, 6.51e-05, 6.70e-06],
              [1.41e-04, 7.74e-06, 6.94e-06, 5.27e-07],
              [2.18e-06, 3.38e-07, 1.24e-07, 1.12e-08],
              [6.93e-09, 1.20e-09, 4.16e-10, 3.90e-11]],
    ),
}

PAIRS = ((8, 32), (16, 64), (32, 128), (64, 256), (128, 512))

# index of the evaluation point nearest to / farthest from the domain
NEAREST_POINT = {"heart": 0, "teardrop": 0, "boomerang": 0, "triangle": 1}
FARTHEST_POINT = {"heart": 3, "teardrop": 3, "boomerang": 3, "triangle": 3}


@pytest.fixture(scope="session")
def heart_boundary():
    return make_example_domain("heart", 5 * math.pi / 3)


@pytest.fixture(scope="session")
def heart_dec(heart_boundary):
    return decompose(heart_boundary, 3.87e-7)


@pytest.fixture(scope="session")
def teardrop_dec():
    return decompose(make_example_domain("teardrop", 2 * math.pi / 3), 5.37e-11)


@pytest.fixture(scope="session")
def boomerang_dec():
    return decompose(make_example_domain("boomerang", 3 * math.pi / 2), 5.16e-8)


@pytest.fixture(scope="session")
def triangle_dec():
    return decompose(make_example_domain("triangle"), 1e-6)


@pytest.fixture(scope="session")
def square_dec():
    sq = make_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    return decompose(sq, 1e-7)


@pytest.fixture(scope="session")
def circle_dec():
    return decompose(make_smooth_boundary(circle_arc()), 1e-6)


@pytest.fixture(scope="session")
def all_corner_decs(heart_dec, teardrop_dec, boomerang_dec, triangle_dec):
    return {"heart": heart_dec, "teardrop": teardrop_dec,
            "boomerang": boomerang_dec, "triangle": triangle_dec}


@pytest.fixture(scope="session")
def heart_datum(heart_dec):
    sol = cb.make_exact_solution("log_pair", q1=(0.5, 0.0), q2=(0.2, 0.0))
    return NeumannDatum(heart_dec.boundary, u_grad=sol.grad), sol


@pytest.fixture(scope="session")
def heart_deviation_points(heart_dec):
    """All collocation points (i, s) of the coarse (8, 32) heart discretization."""
    params = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    return [(i, float(s)) for i, rule in enumerate(radau_rules(heart_dec, params))
            for s in rule.nodes]


@pytest.fixture(scope="session")
def heart_rhs_oracle(heart_dec, heart_datum, heart_deviation_points):
    """Adaptive-quadrature right-hand side at every heart_deviation_points entry."""
    datum, _ = heart_datum
    values = {}
    for i, s in heart_deviation_points:
        _, sm = window_map(heart_dec, i, s)
        values[(i, s)] = oracle_single_layer(heart_dec, datum, sm)
    return values


@pytest.fixture(scope="session")
def example_tables():
    """All four benchmark sweeps, computed once per session."""
    tables = {}
    for name in cb.harness.EXAMPLE_NAMES:
        tables[name] = cb.run_example(cb.example_config(name))
    return tables


# --------------------------------------------------------------------------
# right-hand side at the node table or at sub-arc parameters
# --------------------------------------------------------------------------

def row_rhs(system, datum, M: int) -> np.ndarray:
    """b of a built system as the harness makes it: gbar with the datum's
    M-point rule at every row of the node table."""
    return rhs_approx(datum.sources(M), system.unknown_map)


def gbar_at(dec, datum, M: int, i: int, s):
    """rhs_approx with the datum's M-point rule at a float (giving a float) or 1-D
    array s of parameters on sub-arc i of dec: a node table of those
    points alone, their macro arc and parameter from window_map and their
    positions from subarc_geometry, the corner point at a corner arc's
    s = 0."""
    s1 = np.atleast_1d(np.asarray(s, float))
    ell, sm = window_map(dec, i, s1)
    table = SimpleNamespace(macro_arc=np.full(len(sm), ell), macro_t=sm,
                            points=subarc_geometry(dec, i, s1)[0].T)
    out = rhs_approx(datum.sources(M), table)
    return out if np.ndim(s) else float(out[0])


def datum_density(datum, k: int, t):
    """The datum's parameter density f(sigma_k(t)) |sigma_k'(t)| on macro
    arc k, written out: the cross product g_y x' - g_x y' of the gradient
    g with the tangent, as NeumannDatum.sources forms it before weighting."""
    arc = datum.boundary.arcs[k]
    p = np.asarray(arc.position(t), float)
    d = np.asarray(arc.first_derivative(t), float)
    g = np.asarray(datum.u_grad(p), float)
    return g[..., 1] * d[..., 0] - g[..., 0] * d[..., 1]


def normal_derivative(u_grad, boundary, ell: int, t):
    """Inward normal derivative of a potential on macro arc ell, the
    reference for the densities of NeumannDatum.sources.

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


# --------------------------------------------------------------------------
# sub-arc geometry by the chain rule, and kernels at arbitrary parameters
# --------------------------------------------------------------------------

def radau_rules(dec, params):
    """The full left-Radau rule of every sub-arc: order mu on the corner
    arcs, nu on the central ones; an upsilon arc's rule holds its t = 0
    node, which the node table keeps as the corner's row."""
    return [gauss_radau_left(params.nu if sub.kind == CENTRAL else params.mu)
            for sub in dec.subarcs]


def window_map(dec, i, s):
    """Macro arc and parameter of sub-arc i at s, written out here: the
    window [a, b] from a, or from b backwards on a gamma arc, so that both
    corner arcs start at the corner."""
    sub = dec.subarcs[i]
    s = np.asarray(s, float)
    if sub.kind == GAMMA:
        return sub.macro_index, sub.b - (sub.b - sub.a) * s
    return sub.macro_index, sub.a + (sub.b - sub.a) * s


def subarc_geometry(dec, i, s):
    """Position and first and second derivatives of sub-arc i at s by the
    chain rule over its window of length L: d1 = +/-L sigma' (minus on a
    gamma arc) and d2 = L^2 sigma''; a corner arc's point at s = 0 is the
    stored corner point."""
    sub = dec.subarcs[i]
    s = np.asarray(s, float)
    ell, t = window_map(dec, i, s)
    arc, length = dec.boundary.arcs[ell], sub.b - sub.a
    d1 = (-length if sub.kind == GAMMA else length) * np.asarray(arc.first_derivative(t), float)
    p = np.asarray(arc.position(t), float)
    d2 = length * length * np.asarray(arc.second_derivative(t), float)
    if sub.kind != CENTRAL:
        p = np.where((s == 0.0)[..., None], dec.boundary.corners[i // 3].point, p)
    return p, d1, d2


def arc_nodes_at(dec, i, t):
    """Node geometry of sub-arc i at the parameters t, built here from
    subarc_geometry and the sub-arc's orientation: positions and tangents
    as (2, m) arrays of x and y rows, the tangent and the diagonal kernel
    value taken with the boundary's counterclockwise orientation."""
    t = np.atleast_1d(np.asarray(t, float))
    p, d1, d2 = subarc_geometry(dec, i, t)
    sign = -1.0 if dec.subarcs[i].kind == GAMMA else 1.0
    num = d1[:, 1] * d2[:, 0] - d1[:, 0] * d2[:, 1]
    return SimpleNamespace(points=p.T, tangent=sign * d1.T,
                           curvature=sign * 0.5 * num / (d1 * d1).sum(-1))


def node_table_at(dec, params):
    """The node table's arc, macro_t, points, q and diagonal built here,
    sub-arc by sub-arc: arc_nodes_at and window_map on each full Radau
    rule, q and diagonal weighted, and each upsilon arc's s = 0 node
    folded into its gamma partner's, the corner point."""
    parts = []
    for i, rule in enumerate(radau_rules(dec, params)):
        g = arc_nodes_at(dec, i, rule.nodes)
        part = dict(arc=np.full(len(rule.nodes), i), macro_t=window_map(dec, i, rule.nodes)[1],
                    points=g.points, q=rule.weights * g.tangent,
                    diagonal=rule.weights * g.curvature)
        if dec.subarcs[i].kind == UPSILON:
            parts[-1]["q"][:, 0] += part["q"][:, 0]
            parts[-1]["diagonal"][0] += part["diagonal"][0]
            part = {key: value[..., 1:] for key, value in part.items()}
        parts.append(part)
    return SimpleNamespace(**{key: np.concatenate([part[key] for part in parts], axis=-1)
                              for key in parts[0]})


def _kernel_grid(dec, i, j, t, s, coincide):
    """K[l, h] = K(t[h], s[l]) from sub-arc j to sub-arc i through
    kernels.double_layer; where coincide holds, the source's curvature
    value, and every other pair checked for separation against the
    boundary's extent."""
    fld, src = arc_nodes_at(dec, i, s), arc_nodes_at(dec, j, t)
    k, d2 = double_layer(fld.points, src.points, src.tangent, np.nonzero(coincide))
    scale = float(np.ptp(boundary_polyline(dec.boundary, 1024), axis=0).max())
    check_separation(d2, scale, (np.full(len(s), i), s), (np.full(len(t), j), t))
    return np.where(coincide, src.curvature[None, :], k)


def kernel_block(dec, i, j, t, s):
    """Double-layer kernel K^{i,j}(t[h], s[l]) from field parameters s on
    sub-arc i to source parameters t on sub-arc j; for i = j, entries with
    t[h] == s[l] take the diagonal curvature value."""
    t, s = np.atleast_1d(np.asarray(t, float)), np.atleast_1d(np.asarray(s, float))
    return _kernel_grid(dec, i, j, t, s, (i == j) & (s[:, None] == t[None, :]))


def remainder_at(dec, i, j, t, s):
    """Remainder (K - L)(t[h], s[l]) on the Mellin pair (i, j), the two
    corner arcs of corner i // 3, parameters as in kernel_block; at the
    corner node pair t = s = 0 it is the limit along the s = 0 edge, the
    source's curvature value, with L = 0."""
    t, s = np.atleast_1d(np.asarray(t, float)), np.atleast_1d(np.asarray(s, float))
    corner_pair = (s[:, None] == 0.0) & (t[None, :] == 0.0)
    k = _kernel_grid(dec, i, j, t, s, corner_pair)
    chi = dec.boundary.corners[i // 3].chi
    return k - mellin_kernel(chi, np.where(corner_pair, 1.0, t[None, :]), s[:, None])


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def classical_legendre_table(nmax: int, u) -> np.ndarray:
    """P_0 .. P_nmax at u in [-1, 1] by the three-term recurrence, written
    out here, independent of the numpy table that quadrature.legendre_table
    scales."""
    u = np.atleast_1d(np.asarray(u, float))
    out = np.empty((nmax + 1, u.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = u
    for k in range(2, nmax + 1):
        out[k] = ((2 * k - 1) * u * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


def oracle_log_moments(s: float, M: int, n_gl: int = 300) -> np.ndarray:
    """Moments of log|z - s| by parts: with A_nu the antiderivative of the
    orthonormal Legendre polynomial vanishing at s (elementary identity
    int P_nu = (P_{nu+1} - P_{nu-1}) / (2 nu + 1)), the singular integral
    becomes a boundary term plus a Gauss-Legendre sum of the analytic
    function A_nu(t) / (t - s).  Independent of the recurrence for the
    Legendre functions of the second kind used by the implementation."""
    rule = gauss_legendre(n_gl)
    out = np.zeros(M)
    nu = np.arange(1, M)
    scale = 1.0 / (2.0 * np.sqrt(2 * nu + 1))
    p_at_s = classical_legendre_table(M, 2.0 * s - 1.0)[:, 0]
    anti_s = (p_at_s[nu + 1] - p_at_s[nu - 1]) * scale
    if s < 1.0:
        length = 1.0 - s
        t = s + length * rule.nodes
        p = classical_legendre_table(M, 2.0 * t - 1.0)
        anti = (p[nu + 1] - p[nu - 1]) * scale[:, None] - anti_s[:, None]
        p_one = classical_legendre_table(M, 1.0)[:, 0]
        anti_one = (p_one[nu + 1] - p_one[nu - 1]) * scale - anti_s
        out[1:] += anti_one * math.log(length) - length * (anti / (t - s)) @ rule.weights
        out[0] += length * math.log(length) - length
    if s > 0.0:
        t = s * rule.nodes
        p = classical_legendre_table(M, 2.0 * t - 1.0)
        anti = anti_s[:, None] - (p[nu + 1] - p[nu - 1]) * scale[:, None]
        p_zero = classical_legendre_table(M, -1.0)[:, 0]
        anti_zero = anti_s - (p_zero[nu + 1] - p_zero[nu - 1]) * scale
        out[1:] += anti_zero * math.log(s) - s * (anti / (s - t)) @ rule.weights
        out[0] += s * math.log(s) - s
    return out


def oracle_single_layer(dec, datum, s_macro: float, ell: int = 0,
                        tol: float = 1e-12) -> float:
    """Adaptive-quadrature value of the single-layer integral
    int f log|sigma_ell(s) - Q| dSigma over the whole boundary."""
    boundary = dec.boundary
    base = np.asarray(boundary.arcs[ell].position(float(s_macro)), float)
    total = 0.0
    for k in range(len(boundary.arcs)):
        def integrand(t, k=k):
            p = np.asarray(boundary.arcs[k].position(t), float)
            r = math.hypot(p[0] - base[0], p[1] - base[1])
            if r == 0.0:
                return 0.0
            return float(datum_density(datum, k, t)) * math.log(r)

        pts = [s_macro] if (k == ell and 0.0 < s_macro < 1.0) else None
        val, _ = quad(integrand, 0.0, 1.0, points=pts, limit=800,
                      epsabs=tol, epsrel=tol)
        total += val
    return total


def eval_exterior_per_point(fld, datum, x: float, y: float) -> float:
    """Exterior field value with all geometry recomputed per point.

    A fresh PointLocator of the boundary, the macro-arc rule positions,
    the densities of datum, the one fld was solved with, on a rule of
    fld.rule's order, and the node geometry and weights (node_table_at),
    with their centre, are rebuilt for every point; otherwise the
    arithmetic and its order are those of eval_exterior's direct sums over
    charges and dipoles, offsets from the centre, so the two agree bit
    for bit (non-finite input and output aside).
    """
    p = np.array([float(x), float(y)])
    dec = fld.unknown_map.dec
    near, winding = PointLocator(dec.boundary).locate(p)
    if near[0]:
        raise ExteriorDomainError(f"point ({x}, {y}) is on or next to the boundary")
    if winding[0] != 0:
        raise ExteriorDomainError(f"point ({x}, {y}) lies inside the domain")

    table = node_table_at(dec, fld.unknown_map.params)
    rule, arcs = gauss_legendre(len(fld.rule.nodes)), dec.boundary.arcs
    pts = np.concatenate([np.asarray(arc.position(rule.nodes), float) for arc in arcs])
    dens = np.concatenate([rule.weights * datum_density(datum, j, rule.nodes)
                           for j in range(len(arcs))])
    nodes = table.points[0] + 1j * table.points[1]
    c = complex(nodes.mean())
    z = complex(x, y) - c
    single = float(dens @ np.log(np.abs((pts[:, 0] + 1j * pts[:, 1] - c) - z)))
    dipoles = fld.values * (table.q[0] + 1j * table.q[1])
    double = float(np.sum(dipoles / (z - (nodes - c))).imag)
    return -(single - double) / (2.0 * math.pi)
