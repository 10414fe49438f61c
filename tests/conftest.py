"""Shared fixtures: benchmark domains, cached table sweeps, oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import cornerbie as cb
from cornerbie import ExteriorDomainError
from cornerbie.assembly import DiscretizationParams, UnknownMap
from cornerbie.geometry import (
    boundary_polyline,
    circle_arc,
    decompose,
    macro_param_of,
    make_example_domain,
    make_polygon,
    make_smooth_boundary,
    subarc_eval,
)
from cornerbie.kernels import (
    arc_nodes,
    check_separation,
    double_layer,
    field_kernel_at,
    mellin_chi,
    mellin_kernel,
)
from cornerbie.quadrature import gauss_legendre
from cornerbie.rhs import NeumannDatum

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
    umap = UnknownMap(heart_dec, params)
    return [(i, float(s)) for i in range(heart_dec.n_subarcs) for s in umap.nodes[i]]


@pytest.fixture(scope="session")
def heart_rhs_oracle(heart_dec, heart_datum, heart_deviation_points):
    """Adaptive-quadrature right-hand side at every heart_deviation_points entry."""
    datum, _ = heart_datum
    values = {}
    for i, s in heart_deviation_points:
        _, sm = macro_param_of(heart_dec, i, s)
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
# kernels at arbitrary parameters
# --------------------------------------------------------------------------

def arc_nodes_at(dec, i, t):
    """Node geometry of sub-arc i at the parameters t."""
    t = np.atleast_1d(np.asarray(t, float))
    return arc_nodes(dec.subarcs[i], *subarc_eval(dec, i, t))


def _kernel_grid(dec, i, j, t, s, coincide):
    """K[l, h] = K(t[h], s[l]) from sub-arc j to sub-arc i through
    kernels.double_layer; where coincide holds, the source's curvature
    value, and every other pair checked for separation."""
    fld, src = arc_nodes_at(dec, i, s), arc_nodes_at(dec, j, t)
    k, d2 = double_layer(fld.points.T, src.points.T, src.sign * src.derivs.T,
                         np.nonzero(coincide))
    check_separation(d2, dec.scale, (np.full(len(s), i), s), (np.full(len(t), j), t))
    return np.where(coincide, src.curvature[None, :], k)


def kernel_block(dec, i, j, t, s):
    """Double-layer kernel K^{i,j}(t[h], s[l]) from field parameters s on
    sub-arc i to source parameters t on sub-arc j; for i = j, entries with
    t[h] == s[l] take the diagonal curvature value."""
    t, s = np.atleast_1d(np.asarray(t, float)), np.atleast_1d(np.asarray(s, float))
    return _kernel_grid(dec, i, j, t, s, (i == j) & (s[:, None] == t[None, :]))


def remainder_at(dec, i, j, t, s):
    """Remainder (K - L)(t[h], s[l]) on the Mellin pair (i, j), parameters
    as in kernel_block; at the corner node pair t = s = 0 it is the limit
    along the s = 0 edge, the source's curvature value, with L = 0."""
    t, s = np.atleast_1d(np.asarray(t, float)), np.atleast_1d(np.asarray(s, float))
    corner_pair = (s[:, None] == 0.0) & (t[None, :] == 0.0)
    k = _kernel_grid(dec, i, j, t, s, corner_pair)
    return k - mellin_kernel(mellin_chi(dec, i, j), np.where(corner_pair, 1.0, t[None, :]),
                             s[:, None])


# --------------------------------------------------------------------------
# independent oracles
# --------------------------------------------------------------------------

def classical_legendre_table(nmax: int, u) -> np.ndarray:
    """P_0 .. P_nmax at u in [-1, 1] by the three-term recurrence."""
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
            return float(datum.arc_density(k, t)) * math.log(r)

        pts = [s_macro] if (k == ell and 0.0 < s_macro < 1.0) else None
        val, _ = quad(integrand, 0.0, 1.0, points=pts, limit=800,
                      epsabs=tol, epsrel=tol)
        total += val
    return total


def eval_exterior_per_point(fld, x: float, y: float) -> float:
    """Exterior field value with all geometry recomputed per point.

    The polyline, the macro-arc rule positions, the datum densities and
    the sub-arc geometry are rebuilt for every point, and the winding
    angles are wrapped with the remainder operator; otherwise the
    arithmetic and its order are those of eval_exterior, so the two agree
    bit for bit (non-finite input and output aside).
    """
    p = np.array([float(x), float(y)])
    umap = fld.system.unknown_map
    dec = umap.dec
    polyline = boundary_polyline(dec.boundary, 4096)
    d = polyline - p
    if float((d * d).sum(axis=1).min()) < 1e-9 ** 2:
        raise ExteriorDomainError(f"point ({x}, {y}) is on or next to the boundary")
    ang = np.arctan2(d[:, 1], d[:, 0])
    turns = np.diff(np.concatenate([ang, ang[:1]]))
    turns = (turns + np.pi) % (2.0 * np.pi) - np.pi
    if int(round(float(turns.sum()) / (2.0 * np.pi))) != 0:
        raise ExteriorDomainError(f"point ({x}, {y}) lies inside the domain")

    rule = gauss_legendre(fld.N)
    single = 0.0
    for k in range(len(dec.boundary.arcs)):
        pts = np.asarray(dec.boundary.arcs[k].position(rule.nodes), float)
        dist = np.linalg.norm(pts - p, axis=-1)
        dens = fld.datum.arc_density(k, rule.nodes)
        single += float(np.sum(rule.weights * dens * np.log(dist)))
    geom = [arc_nodes_at(dec, i, t) for i, t in enumerate(umap.nodes)]
    bounds = np.cumsum([0] + [len(g.points) for g in geom])
    h = field_kernel_at(p[0], p[1], np.concatenate([g.points for g in geom]).T.copy(),
                        np.concatenate([g.derivs for g in geom]).T.copy(), bounds)
    double = 0.0
    for i, g in enumerate(geom):
        terms = umap.weights[i] * h[bounds[i]:bounds[i + 1]] * fld.values[i]
        double += g.sign * float(np.sum(terms))
    return -(single - double) / (2.0 * math.pi)
