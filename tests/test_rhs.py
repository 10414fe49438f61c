import math
from types import SimpleNamespace

import numpy as np
import pytest

import cornerbie as cb
from cornerbie import ParameterError
from cornerbie.assembly import DiscretizationParams, UnknownMap
from cornerbie.geometry import circle_arc, make_example_domain, make_polygon, make_smooth_boundary
from cornerbie.quadrature import gauss_legendre, gauss_radau_left, legendre_table
from cornerbie.rhs import NeumannDatum, _log_ratio, rhs_approx

from conftest import gbar_at, normal_derivative


def _max_deviation(dec, datum, M, points, oracle):
    return max(abs(gbar_at(dec, datum, M, i, s) - oracle[(i, s)]) for i, s in points)


def test_sources_density_constant_on_straight_side():
    # u = y has gradient (0, 1) and the inward normal derivative 1 on the
    # bottom side, which has length 2
    tri = make_example_domain("triangle")
    datum = NeumannDatum(tri, u_grad=lambda p: np.broadcast_to([0.0, 1.0], np.shape(p)))
    rule = datum.sources(9)
    np.testing.assert_allclose(rule.density[0] / gauss_legendre(9).weights, 2.0, rtol=1e-14)
    np.testing.assert_allclose(rule.speeds[0], 2.0, rtol=1e-14)


def test_sources_zero_datum(heart_boundary):
    datum = NeumannDatum(heart_boundary, u_grad=lambda p: np.zeros(np.shape(p)))
    assert np.all(datum.sources(5).density == 0.0)


def test_sources_density_is_weighted_normal_derivative_times_speed(all_corner_decs):
    # the cross product g_y x' - g_x y' equals the inward normal derivative
    # times |sigma'| up to roundoff; nodes, positions and speeds are the
    # rule's and the arcs' own
    rule = gauss_legendre(101)
    for name, dec in all_corner_decs.items():
        grad = cb.example_config(name).solution.grad
        nodes, points, speeds, density = NeumannDatum(dec.boundary, u_grad=grad).sources(101)
        assert np.array_equal(nodes, rule.nodes), name
        assert points.shape == (len(dec.boundary.arcs), 101, 2), name
        for k, arc in enumerate(dec.boundary.arcs):
            assert np.array_equal(points[k], arc.position(rule.nodes)), (name, k)
            speed = np.linalg.norm(np.asarray(arc.first_derivative(rule.nodes), float), axis=-1)
            assert np.array_equal(speeds[k], speed), (name, k)
            want = normal_derivative(grad, dec.boundary, k, rule.nodes) * speed
            got = density[k] / rule.weights
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (name, k)


def test_normal_derivative_is_inward(heart_boundary):
    b = make_smooth_boundary(circle_arc())
    # constant gradient (1, 0): at t = 0 the inward normal is (-1, 0)
    val = normal_derivative(lambda p: np.broadcast_to([1.0, 0.0], np.asarray(p).shape), b, 0, 0.0)
    assert val == pytest.approx(-1.0, rel=1e-14)
    # constant potential: zero flux everywhere
    zero = normal_derivative(lambda p: np.zeros(np.asarray(p).shape), b, 0, np.linspace(0, 1, 7))
    assert np.all(zero == 0.0)


def test_single_log_source_flux_is_minus_two_pi():
    b = make_smooth_boundary(circle_arc())
    q = np.array([0.3, 0.1])

    def grad(p):
        d = np.asarray(p, float) - q
        return d / (d * d).sum(-1, keepdims=True)

    rule = gauss_legendre(256)
    dens = normal_derivative(grad, b, 0, rule.nodes) * np.linalg.norm(
        np.asarray(b.arcs[0].first_derivative(rule.nodes), float), axis=-1)
    flux = float(rule.weights @ dens)
    assert flux == pytest.approx(-2 * math.pi, abs=1e-10)
    # and the datum constructor rejects it for violating compatibility
    with pytest.raises(ParameterError, match="violates the zero-flux compatibility"):
        NeumannDatum(b, u_grad=grad)


_QUADRILATERAL = ((0.601, 0.224), (0.235, 0.957), (-0.690, 0.636), (0.411, -0.478))


def test_compatible_datum_runs_once_its_flux_sum_converges():
    # two sources inside: the flux is zero, but the sums at 256, 512 and 1024
    # points per arc are -2.6e-6, -9.4e-13 and 3.8e-14
    sol = cb.make_exact_solution("log_pair", q1=(0.05, 0.0), q2=(-0.05, 0.02))
    cfg = cb.RunConfig(domain="quadrilateral", phi=None, solution=sol,
                       pairs=((8, 32), (16, 64), (32, 128)), c=100.0, eps=1e-6, delta=1e-6,
                       points=((3.0, 3.0), (-40.0, -50.0)), vertices=_QUADRILATERAL)
    rows = cb.run_example(cfg)
    assert [(row.mu, row.nu) for row in rows if not row.failed] == list(cfg.pairs)


def test_datum_whose_flux_sum_does_not_converge_is_rejected():
    # a source 1e-7 inside the midpoint of the first edge: the sums drift
    # from 3.1414 to 3.1385 between 256 and 4096 points per arc
    p0, p1 = np.array(_QUADRILATERAL[:2])
    inward = np.array([p0[1] - p1[1], p1[0] - p0[0]]) / np.linalg.norm(p1 - p0)
    q1 = tuple(0.5 * (p0 + p1) + 1e-7 * inward)
    sol = cb.make_exact_solution("log_pair", q1=q1, q2=(-0.05, 0.02))
    with pytest.raises(ParameterError, match="could not be integrated"):
        NeumannDatum(make_polygon(_QUADRILATERAL), u_grad=sol.grad)


def test_compatibility_of_example_data(all_corner_decs):
    for name in ("heart", "teardrop", "boomerang", "triangle"):
        cfg = cb.example_config(name)
        boundary = cfg.build_boundary()
        datum = NeumannDatum(boundary, u_grad=cfg.solution.grad)
        assert abs(datum.compatibility_residual()) <= 1e-8


def _log_ratio_on_arc(boundary, ell, t, s):
    """log(|sigma_l(s) - sigma_l(t)| / |t - s|) through rhs._log_ratio,
    with the chord, parameter gap and speed computed here from the arc."""
    t, s, arc = np.asarray(t, float), np.asarray(s, float), boundary.arcs[ell]
    chord = np.linalg.norm(np.asarray(arc.position(t), float)
                           - np.asarray(arc.position(s), float), axis=-1)
    speed = np.linalg.norm(np.asarray(arc.first_derivative(t), float), axis=-1)
    out = _log_ratio(chord, np.abs(t - s), speed)
    return out if out.ndim else float(out)


def test_log_chord_ratio_straight_side():
    tri = make_example_domain("triangle")
    t = np.array([0.1, 0.5, 0.9])
    out = _log_ratio_on_arc(tri, 0, t, 0.5)
    np.testing.assert_allclose(out, math.log(2.0), rtol=1e-14)  # side length 2
    assert _log_ratio_on_arc(tri, 0, 0.5, 0.5) == pytest.approx(math.log(2.0), rel=1e-14)


def test_log_chord_ratio_diagonal_branch():
    b = make_smooth_boundary(circle_arc())
    assert _log_ratio_on_arc(b, 0, 0.37, 0.37) == pytest.approx(math.log(2 * math.pi), rel=1e-14)
    # Taylor expansion of the chord: smooth through the branch switch
    assert abs(_log_ratio_on_arc(b, 0, 0.37 + 1e-9, 0.37) - math.log(2 * math.pi)) <= 1e-6


def test_moment_path_equivalence():
    # wiring check with the log kernel replaced by a polynomial: its moment
    # expansion of degree < M is exact, so the product-rule path must equal
    # the direct Gauss-Legendre sum to roundoff
    M = 24
    s = 0.37
    rule = gauss_legendre(M)
    phi = 1.0 + rule.nodes + np.sin(rule.nodes)
    poly = lambda z: (z - s) ** 3
    ptab = legendre_table(M, rule.nodes)
    # moments of the polynomial kernel against the orthonormal basis
    cmom = np.array([float(rule.weights @ (ptab[nu] * poly(rule.nodes)))
                     for nu in range(M)])
    product_path = float(rule.weights @ (phi * (ptab.T @ cmom)))
    direct_path = float(rule.weights @ (phi * poly(rule.nodes)))
    assert abs(product_path - direct_path) <= 1e-12


def test_rhs_single_arc_uses_product_rule_only(heart_dec, heart_datum):
    # n = 1: the cross-arc sum is empty; the value is finite and reproducible
    datum, _ = heart_datum
    v = gbar_at(heart_dec, datum, 16, 2, 0.25)
    assert math.isfinite(v)
    assert v == gbar_at(heart_dec, datum, 16, 2, 0.25)


def test_rhs_array_matches_per_node_calls(all_corner_decs):
    # one whole-row call over the node table equals per-node float calls at
    # the sub-arc parameters up to the summation order of the matrix
    # products: 1e-14 relative to the largest value on the sub-arc, since
    # single values can sit near zero
    for name, dec in all_corner_decs.items():
        cfg = cb.example_config(name)
        datum = NeumannDatum(dec.boundary, u_grad=cfg.solution.grad)
        umap = UnknownMap(dec, DiscretizationParams(mu=8, nu=32, c=cfg.c, eps=cfg.eps))
        got = rhs_approx(datum.sources(16), umap)
        assert got.shape == umap.t.shape
        for i in range(len(dec.subarcs)):
            own = slice(umap.bounds[i], umap.bounds[i + 1])
            want = np.array([gbar_at(dec, datum, 16, i, float(s)) for s in umap.t[own]])
            part = got[own]
            assert np.abs(part - want).max() <= 1e-14 * np.abs(want).max(), (name, i)


def test_rhs_entries_are_gbar_at_row_nodes(monkeypatch):
    # the harness's b holds at row r the value gbar at the node of table
    # row r, the corner rows included, as evaluated here one node at a
    # time from its sub-arc parameter
    seen = {}
    solve = cb.harness.solve_field

    def capture(system, b, rule):
        seen.update(system=system, b=b)
        return solve(system, b, rule)

    monkeypatch.setattr(cb.harness, "solve_field", capture)
    cfg = cb.example_config("heart", pairs=((4, 16),))
    rows = cb.run_example(cfg)
    assert not rows[0].failed
    umap, b = seen["system"].unknown_map, seen["b"]
    datum = NeumannDatum(umap.dec.boundary, u_grad=cfg.solution.grad)
    want = np.array([gbar_at(umap.dec, datum, 8, int(i), float(s))
                     for i, s in zip(umap.arc, umap.t)])
    assert b.shape == umap.t.shape == (len(seen["system"].matrix),)
    assert np.abs(b - want).max() <= 1e-14 * np.abs(want).max()
    corner = umap.corner[0]  # gamma arc, s = 0
    assert umap.t[corner] == 0.0
    assert b[corner] == pytest.approx(want[corner], rel=1e-14)


def test_rhs_corner_rows_are_taken_at_the_corner_points(heart_dec, heart_datum):
    # rhs_approx collocates at the node table's points: its corner row is
    # taken at corner.point, as the matrix row is, not at the macro arc's
    # end, which on the heart lies a few ulps away; moving the corner rows'
    # points to the arc's end changes those rows and no other
    datum, _ = heart_datum
    umap = UnknownMap(heart_dec, DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3))
    points = umap.points.copy()
    for row in umap.corner:
        arc = heart_dec.boundary.arcs[umap.macro_arc[row]]
        points[:, row] = arc.position(umap.macro_t[row])
    assert not np.array_equal(points, umap.points)
    moved = SimpleNamespace(macro_arc=umap.macro_arc, macro_t=umap.macro_t, points=points)
    rule = datum.sources(16)
    got = rhs_approx(rule, umap)
    assert np.array_equal(np.flatnonzero(got != rhs_approx(rule, moved)), umap.corner)


@pytest.mark.parametrize("name, pairs", [("heart", cb.harness.DEFAULT_PAIRS),
                                         ("triangle", ((8, 32), (16, 64)))])
def test_rhs_once_per_row_and_moments_once_per_macro_arc(monkeypatch, name, pairs):
    # the right-hand side is one call per (mu, nu) row, and the log-moment
    # recurrence runs once per macro arc of the row, not once per sub-arc
    rhs_calls, moment_calls = [], []

    def counting(fn, calls):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(cb.harness, "rhs_approx", counting(cb.harness.rhs_approx, rhs_calls))
    monkeypatch.setattr(cb.rhs, "log_moments", counting(cb.rhs.log_moments, moment_calls))
    cfg = cb.example_config(name, pairs=pairs)
    rows = cb.run_example(cfg)
    assert not any(row.failed for row in rows)
    assert len(rhs_calls) == len(pairs)
    assert len(moment_calls) == len(cfg.build_boundary().arcs) * len(pairs)


@pytest.mark.parametrize("name, row_orders", [("heart", lambda nu: [nu // 2]),
                                              ("boomerang", lambda nu: [nu // 2, nu])])
def test_datum_rule_built_once_per_distinct_order_of_a_row(monkeypatch, name, row_orders):
    # the flux check at construction takes its 256- and 512-point sums;
    # then each row builds one rule per distinct rule order: the heart's
    # M = N = nu/2 once, the boomerang's M = nu/2 and N = nu one each
    orders = []
    sources = NeumannDatum.sources

    def counted(datum, n):
        orders.append(n)
        return sources(datum, n)

    monkeypatch.setattr(NeumannDatum, "sources", counted)
    cfg = cb.example_config(name)
    rows = cb.run_example(cfg)
    assert not any(row.failed for row in rows)
    assert orders == [256, 512] + [n for _, nu in cfg.pairs for n in row_orders(nu)]


def test_rhs_oracle_agreement_decreases(heart_dec, heart_datum,
                                        heart_deviation_points, heart_rhs_oracle):
    datum, _ = heart_datum
    devs = [_max_deviation(heart_dec, datum, M, heart_deviation_points, heart_rhs_oracle)
            for M in (16, 32, 64, 128)]
    for a, b in zip(devs, devs[1:]):
        assert b <= 1.2 * a  # monotone decrease up to 20% slack
    # honest magnitude at M = 64: the corner-adjacent collocation points see
    # the logarithmic behaviour of the chord-ratio term next to the closed
    # curve's parameter wrap, which caps plain Gauss-Legendre at O(1/M^2)
    assert devs[2] <= 3e-3


def test_rhs_rate_is_first_order_or_better(heart_dec, heart_datum,
                                           heart_deviation_points, heart_rhs_oracle):
    datum, _ = heart_datum
    d32 = _max_deviation(heart_dec, datum, 32, heart_deviation_points, heart_rhs_oracle)
    d64 = _max_deviation(heart_dec, datum, 64, heart_deviation_points, heart_rhs_oracle)
    ratio = d32 / d64
    assert 2.0 / 3.0 <= ratio <= 6.0


def test_rhs_cancellation_safety(heart_dec, heart_datum):
    datum, _ = heart_datum
    nodes = gauss_radau_left(8).nodes
    s = float(nodes[3])
    a = gbar_at(heart_dec, datum, 32, 1, s)
    b = gbar_at(heart_dec, datum, 32, 1, s + 1e-15)
    assert abs(a - b) <= 1e-10


def test_rhs_range_errors(heart_datum):
    # no rule of order 0 exists, and the log moments stop at 512
    datum, _ = heart_datum
    table = SimpleNamespace(macro_arc=np.array([0]), macro_t=np.array([0.5]),
                            points=np.array([[0.0], [1.0]]))
    with pytest.raises(ParameterError):
        rhs_approx(datum.sources(513), table)
    with pytest.raises(ParameterError):
        datum.sources(0)


def test_rhs_tables_built_once_per_row(monkeypatch):
    # the Legendre table is part of the per-row rule: one per (mu, nu) row,
    # not one per sub-arc
    calls = []
    table = cb.rhs.legendre_table

    def counting(M, x):
        calls.append(M)
        return table(M, x)

    monkeypatch.setattr(cb.rhs, "legendre_table", counting)
    rows = cb.run_example(cb.example_config("heart"))
    assert not any(row.failed for row in rows)
    assert calls == [nu // 2 for _, nu in cb.harness.DEFAULT_PAIRS]
