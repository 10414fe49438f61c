import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cornerbie import CoincidentPointError, ParameterError
from cornerbie.assembly import DiscretizationParams, UnknownMap, build_system
from cornerbie.geometry import UPSILON
from cornerbie.kernels import mellin_kernel
from cornerbie.quadrature import gauss_radau_left

from conftest import arc_nodes_at, radau_rules


def test_params_validation():
    with pytest.raises(ParameterError):
        DiscretizationParams(mu=8, nu=4, c=100.0, eps=1e-3)
    with pytest.raises(ParameterError):
        DiscretizationParams(mu=0, nu=4, c=100.0, eps=1e-3)
    with pytest.raises(ParameterError):
        DiscretizationParams(mu=4, nu=8, c=-1.0, eps=1e-3)
    with pytest.raises(ParameterError):
        DiscretizationParams(mu=4, nu=8, c=100.0, eps=0.7)
    p = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    assert 0.0 < p.tau <= 1.0
    assert p.tau == pytest.approx(300.0 / 32 ** (2 - 2e-3), rel=1e-14)
    # huge blend constant saturates the threshold at 1
    assert DiscretizationParams(mu=2, nu=4, c=1e9, eps=1e-3).tau == 1.0
    # a threshold whose square underflows leaves the wedge kernel at
    # (0, tau) undefined
    with pytest.raises(ParameterError, match="tau\\^2 underflows"):
        DiscretizationParams(mu=8, nu=32, c=1e-300, eps=1e-3)
    assert DiscretizationParams(mu=8, nu=32, c=1e-152, eps=1e-3).tau ** 2 > 0.0


def test_corner_runs_require_strict_order():
    # DiscretizationParams is the one home of 1 <= mu < nu
    with pytest.raises(ParameterError, match="need 1 <= mu < nu, got mu=8, nu=8"):
        DiscretizationParams(mu=8, nu=8, c=100.0, eps=1e-3)


def test_collocation_points(heart_dec):
    params = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    umap = UnknownMap(heart_dec, params)
    # the gamma and central arcs start at t = 0; the upsilon arc's t = 0
    # node is the corner's row, so its rows start at its rule's second node
    for i, count, first in ((0, 9, 0.0), (1, 8, gauss_radau_left(8).nodes[1]), (2, 33, 0.0)):
        t = umap.t[umap.bounds[i]:umap.bounds[i + 1]]
        assert len(t) == count
        assert t[0] == first
        assert t[-1] < 1.0  # the right endpoint is never a collocation point


def test_unknown_counts_triangle(triangle_dec):
    # one table row per unknown: n (2 mu + nu + 3) nodes less one per corner
    params = DiscretizationParams(mu=8, nu=32, c=100.0, eps=1e-6)
    system = build_system(triangle_dec, params)
    umap = system.unknown_map
    n = triangle_dec.boundary.n_corners
    rule_nodes = sum(len(r.nodes) for r in radau_rules(triangle_dec, params))
    assert rule_nodes == n * (2 * 8 + 32 + 3) == 153
    assert len(umap.t) == umap.bounds[-1] == system.matrix.shape[0] == 153 - n == 150


def test_unknown_counts_heart(heart_dec):
    params = DiscretizationParams(mu=128, nu=512, c=300.0, eps=1e-3)
    system = build_system(heart_dec, params)
    umap = system.unknown_map
    assert sum(len(r.nodes) for r in radau_rules(heart_dec, params)) == 2 * 129 + 513 == 771
    assert len(umap.t) == umap.bounds[-1] == system.matrix.shape[0] == 770


def test_corner_merge_indexing(heart_dec, triangle_dec):
    # a corner's row is its gamma arc's first row; it holds the corner
    # point, the sum of both arcs' s = 0 weighted tangents and the sum of
    # their weighted curvature values, and the upsilon arc's rows start at
    # its second node
    w0 = gauss_radau_left(8).weights[0]
    for dec in (heart_dec, triangle_dec):
        umap = UnknownMap(dec, DiscretizationParams(mu=8, nu=32, c=100.0, eps=1e-3))
        assert len(umap.corner) == dec.boundary.n_corners
        for k, corner in enumerate(dec.boundary.corners):
            r, g, u = umap.corner[k], 3 * k, 3 * k + 1
            gamma, upsilon = arc_nodes_at(dec, g, [0.0]), arc_nodes_at(dec, u, [0.0])
            assert r == umap.bounds[g] and umap.arc[r] == g and umap.t[r] == 0.0
            assert umap.t[umap.bounds[u]] == gauss_radau_left(8).nodes[1]
            assert umap.bounds[u + 1] - umap.bounds[u] == 8
            for p in (umap.points[:, r], gamma.points[:, 0], upsilon.points[:, 0]):
                np.testing.assert_array_equal(p, corner.point)
            q = w0 * (gamma.tangent + upsilon.tangent)[:, 0]
            np.testing.assert_allclose(umap.q[:, r], q, rtol=1e-15,
                                       atol=1e-15 * np.abs(q).max())
            diagonal = w0 * (gamma.curvature[0] + upsilon.curvature[0])
            assert umap.diagonal[r] == pytest.approx(diagonal, rel=1e-14, abs=1e-15)


def test_circle_sanity_matrix(circle_dec):
    # constant kernel -pi: A = -pi I - pi (weights row-replicated)
    params = DiscretizationParams(mu=8, nu=16, c=100.0, eps=1e-3)  # no corner reads mu
    system = build_system(circle_dec, params)
    umap = system.unknown_map
    want = -math.pi * np.eye(17) - math.pi * np.tile(umap.w, (17, 1))
    assert np.abs(system.matrix - want).max() <= 1e-12
    ones = np.ones(17)
    assert np.abs(system.matrix @ ones + 2 * math.pi).max() <= 1e-10


def test_duplicate_corner_rows_identical(all_corner_decs):
    # the upsilon corner row that the table does not keep, built entry by
    # entry, equals the matrix's corner row, the gamma one
    for name, dec in all_corner_decs.items():
        params = DiscretizationParams(mu=4, nu=16,
                                      c=300.0 if name == "heart" else 100.0,
                                      eps=1e-3 if name != "triangle" else 1e-6)
        a = build_system(dec, params)
        n = dec.boundary.n_corners
        dropped = _entrywise_rows(dec, params, [(3 * k + 1, 0) for k in range(n)])
        for k in range(n):
            diff = np.abs(a.matrix[a.unknown_map.corner[k]] - dropped[k]).max()
            assert diff <= 1e-13, (name, k, diff)


def _wedge_row(chi, t_nodes, s, tau):
    """The modified wedge row at field parameter s over the partner nodes
    t_nodes, and its coefficient on the corner's column, entry by entry as
    the paper writes them: the kernel row L(t, s) from tau on, and below
    tau the blend (s/tau) L(t, tau) with (tau - s)/tau times the corner row
    value -chi pi."""
    if s >= tau:
        return np.array([mellin_kernel(chi, t, s) for t in t_nodes]), 0.0
    row = np.array([s / tau * mellin_kernel(chi, t, tau) for t in t_nodes])
    return row, (tau - s) / tau * (-chi * math.pi)


def _entrywise_rows(dec, params, fields):
    """The collocation rows at the field nodes fields, (sub-arc, index in
    its Radau rule) pairs, entry by entry: the scalar real-form kernel on
    every (field node, source node) pair, the curvature value where the
    two nodes coincide, the Mellin split K - L + wedge on the corner pairs
    with L = 0 at the corner node pair, the corner coefficient, and each
    source's weight added on its column.  Nodes, weights and node
    geometry are built here from the Radau rules, subarc_geometry and the
    sub-arcs' orientation; only the column numbers are read from the
    unknown map: each sub-arc's table rows, with the corner's row for an
    upsilon arc's s = 0 node."""
    umap = UnknownMap(dec, params)
    rules = radau_rules(dec, params)
    geom = [arc_nodes_at(dec, i, rule.nodes) for i, rule in enumerate(rules)]
    cols = [np.arange(lo, hi) for lo, hi in zip(umap.bounds, umap.bounds[1:])]
    for i, sub in enumerate(dec.subarcs):
        if sub.kind == UPSILON:
            cols[i] = np.r_[umap.corner[i // 3], cols[i]]
    ref = np.zeros((len(fields), len(umap.t)))
    for r, (i, l) in enumerate(fields):
        fld, s = geom[i], rules[i].nodes[l]
        ref[r, cols[i][l]] -= math.pi
        for j, src in enumerate(geom):
            # a Mellin pair: the two corner arcs 3k and 3k + 1 of corner k
            pair = i // 3 == j // 3 and {i % 3, j % 3} == {0, 1}
            chi = dec.boundary.corners[i // 3].chi if pair else None
            if chi is not None:
                wedge, coeff = _wedge_row(chi, rules[j].nodes, s, params.tau)
                ref[r, umap.corner[i // 3]] += coeff
            for h, t in enumerate(rules[j].nodes):
                corner_pair = chi is not None and s == t == 0.0
                if (i == j and s == t) or corner_pair:
                    k = src.curvature[h]
                else:
                    dx, dy = fld.points[:, l] - src.points[:, h]
                    qx, qy = src.tangent[:, h]
                    k = (qy * dx - qx * dy) / (dx * dx + dy * dy)
                if chi is not None:
                    k += wedge[h] - (0.0 if corner_pair else mellin_kernel(chi, t, s))
                ref[r, cols[j][h]] += k * rules[j].weights[h]
    return ref


def _entrywise_matrix(dec, params):
    """The matrix by _entrywise_rows at every node but the upsilon s = 0
    ones, in arc-major order."""
    rules = radau_rules(dec, params)
    return _entrywise_rows(dec, params, [
        (i, l) for i, sub in enumerate(dec.subarcs) for l in range(len(rules[i].nodes))
        if sub.kind != UPSILON or l > 0])


@pytest.mark.parametrize("name", ["heart", "triangle"])
def test_matrix_matches_entrywise_reference(all_corner_decs, name):
    dec = all_corner_decs[name]
    params = DiscretizationParams(mu=8, nu=32, c=300.0 if name == "heart" else 100.0,
                                  eps=1e-3 if name == "heart" else 1e-6)
    a = build_system(dec, params).matrix
    ref = _entrywise_matrix(dec, params)
    assert np.abs(a - ref).max() <= 1e-13 * np.abs(a).max()


def test_build_system_peak_memory(triangle_dec):
    # the kernel rows are written into A a chunk at a time, so no n x n
    # temporary is allocated next to the matrix
    params = DiscretizationParams(mu=128, nu=512, c=100.0, eps=1e-6)
    tracemalloc.start()
    try:
        system = build_system(triangle_dec, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.matrix.shape == (2310, 2310)
    assert peak <= 1.5 * system.matrix.nbytes, peak / system.matrix.nbytes


@pytest.mark.parametrize("mu, nu", [(8, 32), (64, 256)])
def test_build_system_names_coincident_nodes(triangle_dec, mu, nu):
    # central sub-arc 5 made a copy of central sub-arc 2: their nodes
    # coincide, which the squared-distance test reports by sub-arc and
    # parameter
    subarcs = list(triangle_dec.subarcs)
    subarcs[5] = subarcs[2]
    dec = dataclasses.replace(triangle_dec, subarcs=tuple(subarcs))
    params = DiscretizationParams(mu=mu, nu=nu, c=100.0, eps=1e-6)
    with pytest.raises(CoincidentPointError) as err:
        build_system(dec, params)
    assert str(err.value) == "sub-arcs 2, 5: field s=0.0 and source t=0.0 coincide"


def test_wedge_rows_blend_continuity():
    chi = -2.0 / 3.0
    t_nodes = gauss_radau_left(8).nodes
    tau = 0.31
    below = np.nextafter(tau, 0.0)
    (at, coeff_at), (under, coeff_under) = (_wedge_row(chi, t_nodes, s, tau) for s in (tau, below))
    assert np.abs(at - under).max() <= 1e-13
    assert abs(coeff_at) == 0.0
    assert abs(coeff_under) <= 1e-13


def test_wedge_rows_at_zero_reduce_to_corner_value():
    chi = 0.5
    t_nodes = gauss_radau_left(6).nodes
    row, coeff = _wedge_row(chi, t_nodes, 0.0, 0.2)
    assert np.all(row == 0.0)
    assert coeff == -chi * math.pi


def test_wedge_block_row_norms(all_corner_decs):
    # infinity norm of the modified wedge rows (including the corner
    # coefficient) stays below pi + 0.2 for all collocation points
    for name, dec in all_corner_decs.items():
        for mu, nu in ((4, 16), (8, 32), (16, 64)):
            params = DiscretizationParams(mu=mu, nu=nu,
                                          c=300.0 if name == "heart" else 100.0,
                                          eps=1e-3 if name != "triangle" else 1e-6)
            lam = gauss_radau_left(mu).weights
            s_vals = gauss_radau_left(mu).nodes
            for k in range(dec.boundary.n_corners):
                chi = dec.boundary.corners[k].chi
                rows, coeff = zip(*(_wedge_row(chi, s_vals, s, params.tau) for s in s_vals))
                norms = np.abs(np.array(rows) * lam[None, :]).sum(axis=1) + np.abs(coeff)
                assert norms.max() < math.pi + 0.2, (name, mu, nu, k, norms.max())


def test_assembly_deterministic(heart_dec):
    params = DiscretizationParams(mu=4, nu=16, c=300.0, eps=1e-3)
    a1 = build_system(heart_dec, params).matrix
    a2 = build_system(heart_dec, params).matrix
    assert np.array_equal(a1, a2)
