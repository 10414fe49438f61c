import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgetri, dgetri_lwork

import cornerbie as cb
from cornerbie import (
    AssemblyError,
    ExteriorDomainError,
    SingularMatrixError,
    assembly,
    geometry,
    kernels,
    solve_post,
)
from cornerbie.assembly import DenseSystem, DiscretizationParams, build_system, inf_norm
from cornerbie.geometry import Boundary, MacroArc, decompose, make_polygon
from cornerbie.rhs import NeumannDatum, rhs_approx
from cornerbie.solve_post import cond_inf, eval_exterior, solve_dense, solve_field
from conftest import eval_exterior_per_point, row_rhs


# the fewest rows at which _invert compresses: each half then has rows
# enough for _compress's first sketch
_COMPRESSES = 2 * assembly._SKETCH * assembly._RANK_CAP


def _system_from(matrix):
    """A DenseSystem holding only a read-only view of a matrix: the solve
    and cond_inf read nothing else, and nothing may write into it."""
    view = np.asarray(matrix, float).view()
    view.flags.writeable = False
    return DenseSystem(view, unknown_map=None)


def test_solve_identity():
    b = np.array([3.0, -1.0, 0.5])
    x, residual = solve_dense(_system_from(np.eye(3)), b)
    assert np.array_equal(x, b)
    assert residual == 0.0


def test_solve_diagonal():
    x, _ = solve_dense(_system_from([[2.0, 0.0], [0.0, 4.0]]), [2.0, 8.0])
    np.testing.assert_allclose(x, [1.0, 2.0], rtol=1e-15)


def test_solve_manufactured_random():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(50, 50))
    x_true = rng.normal(size=50)
    system = _system_from(a)
    x, residual = solve_dense(system, a @ x_true)
    rel = np.abs(x - x_true).max() / np.abs(x_true).max()
    assert rel <= 1e-10 * cond_inf(system)
    norm_a = np.abs(a).sum(axis=1).max()
    assert residual <= 1e-10 * (norm_a * np.abs(x).max() + np.abs(a @ x_true).max())


def test_solve_singular_matrix():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError):
        solve_dense(_system_from(a), [1.0, 2.0])


def test_non_finite_rhs_rejected():
    # a NaN or inf entry of b is named by its row before the LU
    # solve sees it, as a package error that run_example records
    system = _system_from(np.eye(3))
    for bad in (math.nan, math.inf):
        with pytest.raises(AssemblyError,
                           match="^non-finite right-hand side entry at row 1$"):
            solve_dense(system, [1.0, bad, 0.0])


def test_cond_inf_examples():
    assert cond_inf(_system_from(np.eye(4))) == 1.0
    assert cond_inf(_system_from(np.diag([1.0, 2.0]))) == 2.0
    assert cond_inf(_system_from(np.array([[1.0, 1.0], [0.0, 1.0]]))) == 4.0
    with pytest.raises(SingularMatrixError):
        cond_inf(_system_from(np.zeros((3, 3))))


def test_cond_inf_matches_explicit_inverse():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(200, 200))
    norm_a = np.abs(a).sum(axis=1).max()
    want = norm_a * np.abs(np.linalg.inv(a)).sum(axis=1).max()
    assert cond_inf(_system_from(a)) == pytest.approx(want, rel=1e-12)


def test_one_factorization_per_row_and_per_angle(monkeypatch):
    calls = []

    def counting_lu_factor(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(assembly, "lu_factor", counting_lu_factor)
    rows = cb.run_example(cb.example_config("heart", pairs=((4, 16), (8, 32))))
    assert not any(row.failed for row in rows)
    assert len(calls) == 2
    calls.clear()
    points = cb.angle_sweep("boomerang", [1.3 * np.pi, 1.5 * np.pi, 1.7 * np.pi], 4, 16)
    assert not any(pt.error_message for pt in points)
    assert len(calls) == 3


def _example_system(dec, name, mu, nu):
    """System and harness b of one built-in example at (mu, nu)."""
    cfg = cb.example_config(name)
    datum = NeumannDatum(dec.boundary, u_grad=cfg.solution.grad)
    system = build_system(dec, DiscretizationParams(mu=mu, nu=nu, c=cfg.c, eps=cfg.eps))
    return system, row_rhs(system, datum, cfg.rule_orders(nu)[0])


def test_cond_and_solve_hold_one_factor_buffer(triangle_dec):
    # the inverse is formed in place in the system's n x n buffer, so
    # besides the matrix only that buffer and small work arrays are alive
    system, b = _example_system(triangle_dec, "triangle", 64, 256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cond_inf(system)
        solve_dense(system, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * system.matrix.nbytes


def _lu_getri(a):
    """The dense inverse: lu_factor of A^T, then LAPACK getri at its optimal
    workspace, transposed."""
    lu, piv = lu_factor(a.T)
    inv, info = dgetri(lu, piv, lwork=int(dgetri_lwork(len(a))[0]))
    assert info == 0
    return inv.T


@pytest.fixture(scope="module")
def triangle_large(triangle_dec):
    """The triangle's matrices at (64, 256) and (128, 512): n = 1158 and 2310,
    both at least _COMPRESSES."""
    cfg = cb.example_config("triangle")
    return {(mu, nu): build_system(triangle_dec, DiscretizationParams(
        mu=mu, nu=nu, c=cfg.c, eps=cfg.eps)).matrix for mu, nu in ((64, 256), (128, 512))}


@pytest.mark.parametrize("pair", [(64, 256), (128, 512)])
def test_compressed_inverse_matches_lu_and_getri(triangle_large, monkeypatch, pair):
    # no lu_factor call sees more than a base block, so the compressed path
    # ran and its leaves took the block path
    a, rows = triangle_large[pair], []

    def spying_lu_factor(m, *args, **kwargs):
        rows.append(len(m))
        return lu_factor(m, *args, **kwargs)

    monkeypatch.setattr(assembly, "lu_factor", spying_lu_factor)
    system = _system_from(a)
    inv, norm_a = system.inverse
    assert len(a) >= _COMPRESSES and assembly._BASE >= max(rows)
    want = _lu_getri(a)
    assert np.abs(inv - want).max() <= 1e-13 * inf_norm(want)
    assert cond_inf(system) == pytest.approx(norm_a * inf_norm(want), rel=1e-13, abs=0.0)


def test_compressed_inverse_is_deterministic(triangle_large):
    # the sketches are seeded per call: equal matrices give equal bits
    a = triangle_large[(64, 256)]
    first, second = _system_from(a.copy()), _system_from(a.copy())
    assert np.array_equal(first.inverse[0], second.inverse[0])
    assert cond_inf(first) == cond_inf(second)


def test_leaf_sized_inverse_matches_lu_and_getri(heart_dec, monkeypatch):
    # below _COMPRESSES rows the inverse is block Gauss-Jordan's: no
    # lu_factor call sees more than a base block, and the result is getri's
    # to rounding.  The regular pentagon at (32, 128) has n = 970.
    rows = []

    def spying_lu_factor(m, *args, **kwargs):
        rows.append(len(m))
        return lu_factor(m, *args, **kwargs)

    monkeypatch.setattr(assembly, "lu_factor", spying_lu_factor)
    cfg = cb.example_config("heart")
    heart = build_system(heart_dec, DiscretizationParams(mu=128, nu=512, c=cfg.c, eps=cfg.eps))
    shifted = np.random.default_rng(3).normal(size=(800, 800))
    shifted += 30.0 * np.eye(800)
    pentagon = make_polygon([(math.cos(x), math.sin(x)) for x in np.arange(5) * 0.4 * math.pi])
    pentagon = build_system(decompose(pentagon, 1e-6), DiscretizationParams(
        mu=32, nu=128, c=cfg.c, eps=cfg.eps)).matrix
    assert len(pentagon) == 970
    for a in (heart.matrix, shifted, pentagon):
        rows.clear()
        system = _system_from(a)
        inv, norm_a = system.inverse
        want = _lu_getri(a)
        assert len(a) > assembly._BASE >= max(rows) and inv.flags.c_contiguous
        assert np.abs(inv - want).max() <= 1e-13 * inf_norm(want)
        assert cond_inf(system) == pytest.approx(norm_a * inf_norm(want), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("kind", ["singular-leading-block", "probe-miss"])
def test_block_inverse_falls_back_to_lu_and_getri(kind):
    # the block path does not pivot across halves: the block swap
    # [[0, I], [I, 0]] plus a small term, with its leading _BASE block left
    # exactly 0, fails a base block's pivot check; a Gaussian matrix with
    # cond_inf 1.4e5 leaves a probe residual near 2e-9.  Both take the LU
    # fallback, bit for bit
    rng = np.random.default_rng(3)
    if kind == "probe-miss":
        a = rng.normal(size=(800, 800))
    else:
        a = np.roll(np.eye(300), 150, axis=1) + 0.1 / np.sqrt(300) * rng.normal(size=(300, 300))
        a[:assembly._BASE, :assembly._BASE] = 0.0
    inv = _system_from(a).inverse[0]
    assert np.array_equal(inv, _lu_getri(a)) and inv.flags.c_contiguous


def test_incompressible_matrix_takes_dense_path():
    # a random matrix's off-diagonal blocks have full rank: the sketch
    # passes its cap and the whole matrix is inverted densely
    a = np.random.default_rng(11).normal(size=(1200, 1200))
    assert len(a) >= _COMPRESSES
    inv = _system_from(a).inverse[0]
    assert np.array_equal(inv, _lu_getri(a)) and inv.flags.c_contiguous


@pytest.mark.parametrize("kind", ["same-leaf", "other-half", "singular-capacitance"])
def test_large_singular_matrix_raises(triangle_large, kind):
    # a repeated row in one leaf fails its pivot check; row 300 repeated
    # as the last row passes every block check and leaves the result
    # failing its probe; rows 0 and n/2 equal to e_0 + e_(n/2) make the
    # Woodbury capacitance exactly singular
    a = triangle_large[(128, 512)]
    n = len(a)
    if kind == "singular-capacitance":
        a = np.eye(n)
        a[0, n // 2] = a[n // 2, 0] = 1.0
    elif kind == "same-leaf":
        a = a.copy()
        a[1] = a[0]
    else:
        a = a.copy()
        a[n - 1] = a[300]
    with pytest.raises(SingularMatrixError):
        cond_inf(_system_from(a))


@pytest.mark.parametrize("mu, nu", [(32, 128), (64, 256), (128, 512)])
def test_cond_and_solve_stay_within_a_fifth_of_the_matrix(triangle_dec, mu, nu):
    # n = 582 is one leaf, n = 1158 and 2310 take the compressed path: every
    # leaf is inverted in place in the buffer, and every factor, product
    # chunk and |.| block of the norms is small, so besides the buffer
    # little is alive
    system, b = _example_system(triangle_dec, "triangle", mu, nu)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cond_inf(system)
        solve_dense(system, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * system.matrix.nbytes


@pytest.mark.parametrize("n", [386, 770, 1158, 2310, 313])
@pytest.mark.parametrize("order", ["C", "F"])
def test_inf_norm_is_numpy_row_sum_bit_for_bit(n, order):
    # row blocks of any size give numpy's own row sums, in C order and in
    # Fortran order (getri's inverse); at n = 313 a block of 104 rows
    # would leave one lone last row, which numpy sums differently
    rng = np.random.default_rng(n)
    a = np.asarray(rng.standard_normal((n, n)) * np.exp(4.0 * rng.standard_normal((n, n))),
                   order=order)
    a[-1] *= 1e3  # the last row holds the largest sum
    assert inf_norm(a) == float(np.abs(a).sum(axis=1).max())


def test_solve_and_cond_do_not_depend_on_call_order(triangle_dec):
    system, b = _example_system(triangle_dec, "triangle", 16, 64)
    other = DenseSystem(system.matrix.copy(), system.unknown_map)
    cond = cond_inf(system)
    x, residual = solve_dense(system, b)
    x_first, residual_first = solve_dense(other, b)
    assert cond_inf(other) == cond
    np.testing.assert_array_equal(x_first, x)
    assert residual_first == residual


@pytest.mark.parametrize("name", ["heart", "triangle"])
def test_solve_matches_lu_solve(all_corner_decs, name):
    system, b = _example_system(all_corner_decs[name], name, 64, 256)
    x, _ = solve_dense(system, b)
    want = lu_solve(lu_factor(system.matrix), b)
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()


@pytest.fixture(scope="module")
def heart_field(heart_dec, heart_datum):
    datum, sol = heart_datum
    params = DiscretizationParams(mu=16, nu=64, c=300.0, eps=1e-3)
    system = build_system(heart_dec, params)
    return solve_field(system, row_rhs(system, datum, 32), datum.sources(32)), sol


# eval_exterior takes only points that the boundary's locator has cleared,
# and run_example locates every evaluation point once, before any row; the
# tests below that name eval_exterior's rejections check that location


def test_eval_exterior_rejects_interior_point(heart_boundary):
    near, winding = heart_boundary.locator.locate(np.array([0.5, 0.0]))
    assert not near[0] and winding[0] == 1
    with pytest.raises(cb.ConfigError, match="is not a finite exterior point$"):
        cb.run_example(cb.example_config("heart", points=((0.5, 0.0),)))


def test_eval_exterior_rejects_boundary_point(heart_boundary):
    p = heart_boundary.corners[0].point
    near, _ = heart_boundary.locator.locate(p)
    assert near[0]
    with pytest.raises(cb.ConfigError, match="is not a finite exterior point$"):
        cb.run_example(cb.example_config("heart", points=(tuple(p),)))


def _far_disk(fld):
    """Centre c and radius 2R of the far-field branch, rebuilt from their
    definition: c is the mean of the node table, R the largest distance
    from c to a source, a node or a point of the datum rule.  The field's
    R is attained by a source, so the far branch's worst ratio of source
    to field distance is 1/2, just outside 2R."""
    umap = fld.unknown_map
    c = umap.points.mean(axis=1)
    sources = np.concatenate([umap.points.T, fld.rule.points.reshape(-1, 2)])
    r = float(np.hypot(*(sources - c).T).max())
    assert r == pytest.approx(fld._radius, rel=1e-15, abs=0.0)
    return c, 2.0 * r


@pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                 (1.5e308, 1.5e308)])
def test_eval_exterior_rejects_non_finite(heart_field, x, y):
    # (1.5e308, 1.5e308) is finite, but its distance from the centre
    # overflows, and so does its value
    fld, _ = heart_field
    with pytest.raises(ExteriorDomainError):
        eval_exterior(fld, x, y)


def test_eval_exterior_decay_value_at_huge_point(heart_field):
    # the far branch keeps the rule's flux residual W as its own term, so
    # at (1e300, 1e300), where the direct sums overflow, the value is
    # -W log|z - c| / 2 pi to rounding
    fld, _ = heart_field
    (cx, cy), _ = _far_disk(fld)
    flux = float(fld.rule.density.sum())
    want = -flux * math.log(math.hypot(1e300 - cx, 1e300 - cy)) / (2.0 * math.pi)
    assert eval_exterior(fld, 1e300, 1e300) == pytest.approx(want, rel=1e-14, abs=0.0)


def _solved_field(dec, name, mu, nu):
    """Field of one built-in example at (mu, nu) with the harness's datum
    and rule orders."""
    cfg = cb.example_config(name)
    datum = NeumannDatum(dec.boundary, u_grad=cfg.solution.grad)
    system = build_system(dec, DiscretizationParams(mu=mu, nu=nu, c=cfg.c, eps=cfg.eps))
    m_rhs, n_outer = cfg.rule_orders(nu)
    return solve_field(system, row_rhs(system, datum, m_rhs), datum.sources(n_outer))


def _field_datum(fld, name):
    """The datum a field of built-in example name was solved with."""
    return NeumannDatum(fld.unknown_map.dec.boundary, u_grad=cb.example_config(name).solution.grad)


@pytest.fixture(scope="module")
def fields_16_64(all_corner_decs):
    """(16, 64) fields of the four benchmark domains."""
    return {name: _solved_field(dec, name, 16, 64) for name, dec in all_corner_decs.items()}


def _offset_points(boundary, n=40):
    """n points off the boundary along the outward normal, at distances
    log-spaced from 1e-3 to 1e2 (concave stretches may put some inside)."""
    pts = []
    for k, dist in enumerate(np.geomspace(1e-3, 1e2, n)):
        arc = boundary.arcs[k % len(boundary.arcs)]
        t = (0.5 + k * 0.618034) % 1.0
        foot = np.asarray(arc.position(t), float)
        d1 = np.asarray(arc.first_derivative(t), float)
        pts.append(foot + dist * np.array([d1[1], -d1[0]]) / np.linalg.norm(d1))
    return pts


# the far branch against the direct sums: 1e-14 absolute is the field
# gate's floor; relative error alone fails on the dipole's tiny values
FAR_RTOL, FAR_ATOL = 1e-12, 1e-14


@pytest.mark.parametrize("name", cb.harness.EXAMPLE_NAMES)
def test_eval_exterior_matches_per_point_loop(fields_16_64, name):
    # on the points the boundary's locator clears, as run_example's: bit
    # for bit where the direct sums run, within the far branch's tolerances
    # beyond 2R; the oracle locates each point itself and rejects the rest
    fld = fields_16_64[name]
    c, far_radius = _far_disk(fld)
    oracle = partial(eval_exterior_per_point, fld, _field_datum(fld, name))
    boundary = fld.unknown_map.dec.boundary
    pts = np.array(_offset_points(boundary))
    near, winding = boundary.locator.locate(pts)
    cleared = ~near & (winding == 0)
    got, want = {}, {}
    for x, y in pts[cleared]:
        far = bool(np.hypot(x - c[0], y - c[1]) > far_radius)
        got.setdefault(far, []).append(eval_exterior(fld, x, y))
        want.setdefault(far, []).append(oracle(x, y))
    for x, y in pts[~cleared]:
        with pytest.raises(ExteriorDomainError):
            oracle(x, y)
    assert len(want[False]) >= 20 and len(want[True]) >= 5
    np.testing.assert_array_equal(got[False], want[False])
    np.testing.assert_allclose(got[True], want[True], rtol=FAR_RTOL, atol=FAR_ATOL)


@pytest.fixture(scope="module")
def far_fields(all_corner_decs):
    return {(name, mu, nu): _solved_field(dec, name, mu, nu)
            for name, dec in all_corner_decs.items()
            for mu, nu in ((8, 32), (16, 64), (64, 256))}


@pytest.mark.parametrize("pair", [(8, 32), (16, 64), (64, 256)], ids=str)
@pytest.mark.parametrize("name", cb.harness.EXAMPLE_NAMES)
def test_eval_exterior_far_branch_on_random_points(far_fields, name, pair):
    fld = far_fields[(name, *pair)]
    (cx, cy), far_radius = _far_disk(fld)
    rng = np.random.default_rng(list(pair))
    # the worst ratio 1/2 just outside 2R, then out to 100 R
    radius = far_radius * np.concatenate([np.full(4, 1.0 + 1e-12),
                                          np.geomspace(1.0001, 50.0, 16)])
    angle = rng.uniform(0.0, 2.0 * np.pi, len(radius))
    pts = np.stack([cx + radius * np.cos(angle), cy + radius * np.sin(angle)], axis=1)
    got = [eval_exterior(fld, x, y) for x, y in pts]
    datum = _field_datum(fld, name)
    want = [eval_exterior_per_point(fld, datum, x, y) for x, y in pts]
    np.testing.assert_allclose(got, want, rtol=FAR_RTOL, atol=FAR_ATOL)


def _counting(calls, fn):
    """fn, recording its name in calls at each call."""
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return counted


def test_far_point_skips_location_and_kernel(heart_field, monkeypatch):
    # the field is its own table of sources: neither branch locates the
    # point or forms a kernel row
    fld, _ = heart_field
    (cx, cy), far_radius = _far_disk(fld)
    calls = []
    counting = partial(_counting, calls)
    monkeypatch.setattr(geometry.PointLocator, "locate", counting(geometry.PointLocator.locate))
    # the kernel, also under the name a `from .kernels import` in solve_post would bind
    kernel = counting(kernels.double_layer)
    for module in (kernels, solve_post):
        monkeypatch.setattr(module, "double_layer", kernel, raising=False)
    for a in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
        for r in (1.0 + 1e-12, 3.0, 1e3):
            eval_exterior(fld, cx + r * far_radius * np.cos(a), cy + r * far_radius * np.sin(a))
    assert calls == []
    eval_exterior(fld, cx + 0.9 * far_radius, cy)
    assert calls == []


@pytest.mark.parametrize("name", ["heart", "triangle"])
def test_eval_exterior_rejects_collocation_nodes(fields_16_64, name):
    # the point locator finds these nodes on the boundary, so no kernel of
    # eval_exterior is ever formed at a node
    umap = fields_16_64[name].unknown_map
    nodes = [umap.points[:, umap.bounds[i] + h] for i, h in ((0, 1), (1, 1), (2, 0), (2, 32))]
    near, _ = umap.dec.boundary.locator.locate(np.array(nodes))
    assert near.all()


@pytest.mark.parametrize("name, point", [("triangle", (0.75, 0.0)),
                                         ("triangle", (0.75, 0.1234567)),
                                         ("triangle", (-0.25, -0.75)),
                                         ("heart", (0.0, 0.0))])
def test_points_on_the_boundary_are_rejected(all_corner_decs, name, point):
    # on two sides of the triangle and at the heart's corner: neither an
    # evaluation point nor a singular point may lie there, and the field
    # is not evaluated there
    with pytest.raises(cb.ConfigError, match="is not a finite exterior point$"):
        cb.run_example(cb.example_config(name, points=(point,)))
    inside = {"triangle": (0.25, -0.25), "heart": (0.2, 0.0)}[name]
    solution = cb.make_exact_solution("log_pair", q1=point, q2=inside)
    with pytest.raises(cb.ConfigError, match="must be a finite point inside the domain$"):
        cb.run_example(cb.example_config(name, solution=solution))
    near, _ = all_corner_decs[name].boundary.locator.locate(np.array(point))
    assert near[0]


@pytest.mark.parametrize("pair", [(8, 32), (16, 64)], ids=str)
@pytest.mark.parametrize("name", cb.harness.EXAMPLE_NAMES)
def test_every_collocation_node_is_on_the_boundary(far_fields, name, pair):
    umap = far_fields[(name, *pair)].unknown_map
    near, _ = umap.dec.boundary.locator.locate(umap.points.T)
    assert near.all()


@pytest.mark.parametrize("offset, raises", [(0.5e-12, True), (2e-12, True), (0.5e-9, True),
                                             (2e-9, False)])
def test_eval_exterior_node_distance_threshold(fields_16_64, offset, raises):
    # offsets from a node on the triangle's hypotenuse (central sub-arc 8),
    # along each axis in its outward sense, scaled so that 1e-9 is the
    # locator's tolerance: within it of the side a point is on or next to
    # the boundary; 2 tolerances along an axis are 1.41 from the side, and
    # the point is exterior and evaluated
    fld = fields_16_64["triangle"]
    umap = fld.unknown_map
    x, y = umap.points[:, umap.bounds[8] + 5]
    locator = umap.dec.boundary.locator
    offset *= locator.tol / 1e-9
    pts = np.array([(x - offset, y), (x, y + offset)])
    near, winding = locator.locate(pts)
    if raises:
        assert near.all()
    else:
        assert not near.any() and not winding.any()
        assert all(math.isfinite(eval_exterior(fld, px, py)) for px, py in pts)


_CALLABLES = ("position", "first_derivative", "second_derivative")


def _counting_dec(dec, calls):
    """dec on a copy of its boundary whose macro arcs record (arc index,
    callable name) in calls at each call."""
    def counted(ell, name):
        fn = getattr(dec.boundary.arcs[ell], name)

        def f(t):
            calls.append((ell, name))
            return fn(t)
        return f

    arcs = tuple(MacroArc(*(counted(ell, name) for name in _CALLABLES))
                 for ell in range(len(dec.boundary.arcs)))
    return dataclasses.replace(dec, boundary=Boundary(arcs, dec.boundary.corners))


def test_eval_exterior_does_only_per_point_work(heart_field, heart_datum, monkeypatch):
    fld, _ = heart_field
    datum, _ = heart_datum
    calls = []
    dec = _counting_dec(fld.unknown_map.dec, calls)
    system = build_system(dec, fld.unknown_map.params)
    fld = solve_field(system, row_rhs(system, datum, 32), datum.sources(32))
    (cx, cy), far_radius = _far_disk(fld)
    calls.clear()
    counting = partial(_counting, calls)
    monkeypatch.setattr(NeumannDatum, "sources", counting(NeumannDatum.sources))
    monkeypatch.setattr(geometry.PointLocator, "__init__",
                        counting(geometry.PointLocator.__init__))
    # radius 5 is beyond the heart's 2R = 3.56 and takes the far branch;
    # the ring at 0.7 (2R) about the centre is exterior and takes the direct
    # sums
    angles = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    rings = [(0.0, 0.0, 5.0), (cx, cy, 0.7 * far_radius)]
    values = [eval_exterior(fld, x0 + r * np.cos(a), y0 + r * np.sin(a))
              for x0, y0, r in rings for a in angles]
    assert all(math.isfinite(v) for v in values)
    assert calls == []


def test_node_geometry_evaluated_once_per_macro_arc(all_corner_decs):
    calls = []
    for name in ("heart", "triangle"):
        dec, cfg = _counting_dec(all_corner_decs[name], calls), cb.example_config(name)
        datum = NeumannDatum(all_corner_decs[name].boundary, u_grad=cfg.solution.grad)
        params = DiscretizationParams(mu=8, nu=32, c=cfg.c, eps=cfg.eps)
        system = build_system(dec, params)
        arcs = range(len(dec.boundary.arcs))
        assert sorted(calls) == sorted((ell, fn) for ell in arcs for fn in _CALLABLES), name
        calls.clear()
        solve_field(system, row_rhs(system, datum, 16), datum.sources(16))
        assert calls == [], name


def test_datum_rule_reads_each_macro_arc_once_and_rhs_and_field_none(all_corner_decs):
    # a row's datum rule takes one position and one first_derivative call
    # per macro arc, and no second_derivative call; the right-hand side and
    # the field read that rule, and the rhs its collocation points from the
    # node table, so neither calls an arc
    for name in ("heart", "triangle"):
        calls = []
        dec, cfg = _counting_dec(all_corner_decs[name], calls), cb.example_config(name)
        datum = NeumannDatum(dec.boundary, u_grad=cfg.solution.grad)
        system = build_system(dec, DiscretizationParams(mu=8, nu=32, c=cfg.c, eps=cfg.eps))
        once = sorted((ell, fn) for ell in range(len(dec.boundary.arcs))
                      for fn in ("first_derivative", "position"))
        calls.clear()
        rule = datum.sources(16)
        assert sorted(calls) == once, name
        calls.clear()
        solve_field(system, rhs_approx(rule, system.unknown_map), rule)
        assert calls == [], name


def test_exterior_accuracy_and_distance_trend(heart_field):
    fld, sol = heart_field
    err_near = abs(eval_exterior(fld, 3.0, 3.0) - float(sol.u(np.array([3.0, 3.0]))))
    err_far = abs(eval_exterior(fld, -40.0, -50.0) - float(sol.u(np.array([-40.0, -50.0]))))
    assert err_near <= 10 * 1.89e-04  # published cell for this discretization
    assert err_near >= err_far


def test_far_field_decay(heart_field):
    fld, _ = heart_field
    vals = [abs(eval_exterior(fld, r, r)) for r in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 10.0 * vals[0] * (10.0 / 1000.0)


def test_smooth_circle_pipeline(circle_dec):
    # no corners: spectral Nystrom part; the rhs and outer rules are raised
    # so their wrap-limited algebraic error stays below the target
    sol = cb.make_exact_solution("log_pair", q1=(0.5, 0.0), q2=(0.2, 0.0))
    datum = NeumannDatum(circle_dec.boundary, u_grad=sol.grad)
    params = DiscretizationParams(mu=32, nu=64, c=100.0, eps=1e-3)  # no corner reads mu
    system = build_system(circle_dec, params)
    fld = solve_field(system, row_rhs(system, datum, 256), datum.sources(256))
    err = abs(eval_exterior(fld, 3.0, 3.0) - float(sol.u(np.array([3.0, 3.0]))))
    assert err <= 1e-8


def test_solution_field_nodal_values_shared_at_corner(heart_field):
    # both corner arcs read the corner's value from its one table row
    fld, _ = heart_field
    umap = fld.unknown_map
    assert fld.values.shape == umap.t.shape
    assert umap.bounds[0] == umap.corner[0] and umap.t[umap.bounds[1]] > 0.0
    assert np.all(np.isfinite(fld.values))


def test_reentrant_polygon_pipeline():
    # six corners, one of them reentrant: errors shrink as the orders double
    # and the conditioning stays flat
    verts = [(0.0, 0.0), (0.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)]
    boundary = make_polygon(verts)
    assert boundary.corners[0].chi == pytest.approx(-0.5, abs=1e-12)
    dec = decompose(boundary, 1e-7)
    sol = cb.make_exact_solution("log_pair", q1=(0.5, 0.0), q2=(0.5, -0.5))
    datum = NeumannDatum(boundary, u_grad=sol.grad)
    errs, conds = [], []
    for mu, nu in ((8, 32), (16, 64)):
        params = DiscretizationParams(mu=mu, nu=nu, c=100.0, eps=1e-3)
        system = build_system(dec, params)
        conds.append(cond_inf(system))
        fld = solve_field(system, row_rhs(system, datum, nu // 2), datum.sources(nu // 2))
        errs.append(abs(eval_exterior(fld, 3.0, 3.0) - float(sol.u(np.array([3.0, 3.0])))))
    assert errs[1] < errs[0] / 2
    assert errs[1] <= 1e-5
    assert max(conds) < 50.0
