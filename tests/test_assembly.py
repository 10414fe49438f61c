import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cornerbie import CoincidentPointError, ParameterError
from cornerbie.assembly import (
    DiscretizationParams,
    UnknownMap,
    _fill_rows,
    build_system,
    modified_wedge_rows,
)
from cornerbie.geometry import CENTRAL
from cornerbie.kernels import mellin_chi, mellin_corner_coefficient, mellin_kernel
from cornerbie.quadrature import gauss_radau_left

from conftest import arc_nodes_at


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


def test_corner_runs_require_strict_order(heart_dec):
    params = DiscretizationParams(mu=8, nu=8, c=100.0, eps=1e-3)
    with pytest.raises(ParameterError):
        UnknownMap(heart_dec, params)


def test_collocation_points(heart_dec):
    params = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    umap = UnknownMap(heart_dec, params)
    for i, count in ((0, 9), (1, 9), (2, 33)):
        nodes = umap.nodes[i]
        assert len(nodes) == count
        assert nodes[0] == 0.0
        assert nodes[-1] < 1.0  # the right endpoint is never a collocation point


def test_unknown_counts_triangle(triangle_dec):
    params = DiscretizationParams(mu=8, nu=32, c=100.0, eps=1e-6)
    umap = UnknownMap(triangle_dec, params)
    n = triangle_dec.n_corners
    assert umap.bounds[-1] == n * (2 * 8 + 32 + 3) == 153
    assert umap.reduced_size == umap.bounds[-1] - n == 150


def test_unknown_counts_heart(heart_dec):
    params = DiscretizationParams(mu=128, nu=512, c=300.0, eps=1e-3)
    umap = UnknownMap(heart_dec, params)
    assert umap.bounds[-1] == 2 * 129 + 513 == 771
    assert umap.reduced_size == 770


def test_corner_merge_indexing(heart_dec):
    params = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    umap = UnknownMap(heart_dec, params)
    assert umap.col[umap.bounds[1]] == umap.col[umap.bounds[0]] == umap.corner_col[0]
    assert umap.row[umap.bounds[1]] == -1
    assert sorted(set(umap.col.tolist())) == list(range(umap.reduced_size))


def test_circle_sanity_matrix(circle_dec):
    # constant kernel -pi: A = -pi I - pi (weights row-replicated)
    params = DiscretizationParams(mu=16, nu=16, c=100.0, eps=1e-3)
    system = build_system(circle_dec, params)
    umap = system.unknown_map
    want = -math.pi * np.eye(17) - math.pi * np.tile(umap.w, (17, 1))
    assert np.abs(system.matrix - want).max() <= 1e-12
    ones = np.ones(17)
    assert np.abs(system.matrix @ ones + 2 * math.pi).max() <= 1e-10


def test_duplicate_corner_rows_identical(all_corner_decs):
    # the upsilon corner row that assembly drops equals the gamma one it keeps
    for name, dec in all_corner_decs.items():
        params = DiscretizationParams(mu=4, nu=16,
                                      c=300.0 if name == "heart" else 100.0,
                                      eps=1e-3 if name != "triangle" else 1e-6)
        umap = UnknownMap(dec, params)
        for k in range(dec.n_corners):
            rows = np.zeros((2, umap.reduced_size))
            _fill_rows(umap, rows[:1], [umap.bounds[3 * k]])
            _fill_rows(umap, rows[1:], [umap.bounds[3 * k + 1]])
            diff = np.abs(rows[0] - rows[1]).max()
            assert diff <= 1e-13, (name, k, diff)


def _entrywise_matrix(dec, params):
    """The reduced matrix entry by entry: the scalar real-form kernel on
    every (row node, source node) pair, the curvature value where the two
    nodes coincide, the Mellin split K - L + wedge on the corner pairs
    with L = 0 at the corner node pair, the corner coefficient, and each
    source's weight added on its merged column.  Nodes, weights and node
    geometry are built here from the Radau rules, subarc_eval and the
    sub-arcs' orientation; only the row and column numbers are read from
    the unknown map."""
    umap = UnknownMap(dec, params)
    rules = [gauss_radau_left(params.nu if sub.kind == CENTRAL else params.mu)
             for sub in dec.subarcs]
    geom = [arc_nodes_at(dec, i, rule.nodes) for i, rule in enumerate(rules)]
    rows = [umap.row[lo:hi] for lo, hi in zip(umap.bounds, umap.bounds[1:])]
    cols = [umap.col[lo:hi] for lo, hi in zip(umap.bounds, umap.bounds[1:])]
    ref = np.zeros((umap.reduced_size, umap.reduced_size))
    for i, fld in enumerate(geom):
        for l, s in enumerate(rules[i].nodes):
            r = rows[i][l]
            if r < 0:
                continue
            ref[r, cols[i][l]] -= math.pi
            for j, src in enumerate(geom):
                chi = mellin_chi(dec, i, j)
                if chi is not None:
                    wedge, coeff = modified_wedge_rows(chi, rules[j].nodes, [s], params.tau)
                    ref[r, umap.corner_col[i // 3]] += coeff[0]
                for h, t in enumerate(rules[j].nodes):
                    corner_pair = chi is not None and s == t == 0.0
                    if (i == j and s == t) or corner_pair:
                        k = src.curvature[h]
                    else:
                        dx, dy = fld.points[:, l] - src.points[:, h]
                        qx, qy = src.tangent[:, h]
                        k = (qy * dx - qx * dy) / (dx * dx + dy * dy)
                    if chi is not None:
                        k += wedge[0, h] - (0.0 if corner_pair else mellin_kernel(chi, t, s))
                    ref[r, cols[j][h]] += k * rules[j].weights[h]
    return ref


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
    subarcs[5] = dataclasses.replace(subarcs[2], index=5)
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
    rows, coeff = modified_wedge_rows(chi, t_nodes, np.array([tau, below]), tau)
    assert np.abs(rows[0] - rows[1]).max() <= 1e-13
    assert abs(coeff[0]) == 0.0
    assert abs(coeff[1]) <= 1e-13


def test_wedge_rows_at_zero_reduce_to_corner_value():
    chi = 0.5
    t_nodes = gauss_radau_left(6).nodes
    rows, coeff = modified_wedge_rows(chi, t_nodes, np.array([0.0]), 0.2)
    assert np.all(rows[0] == 0.0)
    assert coeff[0] == mellin_corner_coefficient(chi)


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
            for k in range(dec.n_corners):
                chi = dec.boundary.corners[k].chi
                rows, coeff = modified_wedge_rows(chi, s_vals, s_vals, params.tau)
                norms = np.abs(rows * lam[None, :]).sum(axis=1) + np.abs(coeff)
                assert norms.max() < math.pi + 0.2, (name, mu, nu, k, norms.max())


def test_assembly_deterministic(heart_dec):
    params = DiscretizationParams(mu=4, nu=16, c=300.0, eps=1e-3)
    a1 = build_system(heart_dec, params).matrix
    a2 = build_system(heart_dec, params).matrix
    assert np.array_equal(a1, a2)
