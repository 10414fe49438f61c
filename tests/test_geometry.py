import inspect
import math
import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from cornerbie import GeometryError, ParameterError, example_config
from cornerbie.assembly import DiscretizationParams, UnknownMap
from cornerbie.geometry import (
    CENTRAL,
    GAMMA,
    UPSILON,
    Boundary,
    MacroArc,
    PointLocator,
    as_complex,
    boundary_polyline,
    circle_arc,
    decompose,
    line_arc,
    make_boundary,
    make_example_domain,
    make_polygon,
    make_smooth_boundary,
    winding_number,
)

from conftest import node_table_at, subarc_geometry


# one arc of each constructor: the three parametric families, a line, a
# circle and a polygon side
_ARCS = {
    "line": line_arc((0.3, -1.2), [2.5, 0.7]),
    "circle": circle_arc(1.7, (0.2, -0.4)),
    "heart": make_example_domain("heart", 5 * math.pi / 3).arcs[0],
    "teardrop": make_example_domain("teardrop", 2 * math.pi / 3).arcs[0],
    "boomerang": make_example_domain("boomerang", 3 * math.pi / 2).arcs[0],
    "polygon side": make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]).arcs[3],
}


@pytest.mark.parametrize("name", _ARCS)
def test_arc_calling_contract(name):
    # every callable takes t of any shape (PointLocator passes 2-D samples)
    # and returns float64 points on a trailing axis of length 2; a list
    # gives what an array gives
    arc = _ARCS[name]
    grid = np.linspace(0.0, 1.0, 12).reshape(4, 3)
    for f in (arc.position, arc.first_derivative, arc.second_derivative):
        for t, shape in ((0.25, (2,)), (np.float64(1.0), (2,)), (np.array(0.5), (2,)),
                         (grid[0], (3, 2)), (grid, (4, 3, 2))):
            got = f(t)
            assert got.shape == shape and got.dtype == np.float64, (f, t)
        np.testing.assert_array_equal(f(grid.tolist()), f(grid))
        np.testing.assert_array_equal(f(grid)[1, 2], f(grid[1, 2]))
        assert f([0, 1]).dtype == np.float64


@pytest.mark.parametrize("vertices, edges", [
    # edges 2 and 3 both cross edge 0
    ([(0, 0), (3, 0), (3, 2), (1, -0.5), (0, 2)], (0, 2)),
    # vertex 3 lies on edge 0
    ([(0, 0), (3, 0), (3, 1), (2, 0), (1, 1)], (0, 2)),
    # edge 2 ends on edge 0, and edge 3 runs along it
    ([(0, 0), (4, 0), (4, 1), (3, 0), (1, 0), (0, 1)], (0, 2)),
])
def test_make_polygon_rejects_edges_that_meet(vertices, edges):
    i, j = edges
    with pytest.raises(GeometryError, match=f"polygon edges {i} and {j} cross or touch"):
        make_polygon(vertices)


def test_make_polygon_keeps_non_convex_polygons():
    # a U shape whose inner edge nearly meets the bottom one, and a notch
    # that leaves edges 0 and 4 on one line, apart
    u = make_polygon([(0, 0), (3, 0), (3, 2), (2, 2), (2, 1e-12), (1, 1e-12), (1, 2), (0, 2)])
    notch = make_polygon([(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0), (3, 2), (0, 2)])
    assert u.n_corners == notch.n_corners == 8


def test_unit_square_corner_parameters():
    sq = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for corner in sq.corners:
        assert abs(corner.interior_angle - math.pi / 2) <= 1e-12
        assert abs(corner.chi - 0.5) <= 1e-12


def test_triangle_corner_parameters():
    tri = make_example_domain("triangle")
    expected = {(-1.25, -0.75): 0.75, (0.75, -0.75): 0.5, (0.75, 1.25): 0.75}
    for corner in tri.corners:
        chi = expected[tuple(corner.point)]
        assert abs(corner.chi - chi) <= 1e-12


def test_heart_corner_and_closure():
    b = make_example_domain("heart", 5 * math.pi / 3)
    assert np.linalg.norm(b.arcs[0].position(0.0)) <= 1e-14
    assert np.linalg.norm(b.arcs[0].position(1.0)) <= 1e-13
    assert abs(b.corners[0].chi - (-2.0 / 3.0)) <= 1e-12


def test_teardrop_parametrization_spot_values():
    phi = 2 * math.pi / 3
    b = make_example_domain("teardrop", phi)
    for t in (0.13, 0.5, 0.82):
        p = b.arcs[0].position(t)
        want = np.array([2 * math.sin(math.pi * t), -math.tan(phi / 2) * math.sin(2 * math.pi * t)])
        assert np.abs(p - want).max() <= 1e-14


def test_boomerang_inward_corner():
    b = make_example_domain("boomerang", 3 * math.pi / 2)
    assert np.linalg.norm(b.corners[0].point) <= 1e-14
    assert abs(b.corners[0].chi - (-0.5)) <= 1e-12


def test_example_domains_counterclockwise():
    domains = [make_example_domain("heart", 5 * math.pi / 3),
               make_example_domain("teardrop", 2 * math.pi / 3),
               make_example_domain("boomerang", 3 * math.pi / 2),
               make_example_domain("triangle")]
    for b in domains:
        pts = boundary_polyline(b, 4096)
        x, y = pts[:, 0], pts[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1)))
        assert area > 0


def test_corner_angle_matches_one_sided_tangents():
    # a corner keeps the one-sided derivatives of its arcs, read-only, and
    # its angle is the turn from the outgoing to the reversed incoming one
    tri = make_example_domain("triangle")
    n = len(tri.arcs)
    for k, corner in enumerate(tri.corners):
        d_in = tri.arcs[(k - 1) % n].first_derivative(1.0)
        d_out = tri.arcs[k].first_derivative(0.0)
        assert np.array_equal(corner.d_in, d_in) and np.array_equal(corner.d_out, d_out)
        assert not any(a.flags.writeable for a in (corner.point, corner.d_in, corner.d_out))
        ang = (math.atan2(-d_in[1], -d_in[0]) - math.atan2(d_out[1], d_out[0])) % (2 * math.pi)
        assert abs(ang - corner.interior_angle) <= 1e-10


def test_make_boundary_rejects_open_curve():
    arcs = [line_arc((0, 0), (1, 0)), line_arc((1, 0.5), (0, 0))]
    with pytest.raises(GeometryError, match="do not close up"):
        make_boundary(arcs)


_LINE = line_arc((0.0, 0.0), (1.0, 2.0))


@pytest.mark.parametrize("build, named", [
    (lambda: make_polygon([(0, 0), (1, 0)]), "polygon needs at least 3 vertices, got 2"),
    (lambda: make_boundary([]), "a boundary needs at least 1 arc, got 0"),
    (lambda: MacroArc(lambda t: _LINE.position(t) + np.inf, _LINE.first_derivative,
                      _LINE.second_derivative).validate(), "arc position must be finite"),
    (lambda: MacroArc(_LINE.position, _LINE.first_derivative,
                      lambda t: _LINE.second_derivative(t) + np.inf).validate(),
     "arc second derivative must be finite on [0, 1]"),
    (lambda: MacroArc(_LINE.position,
                      lambda t: np.asarray(t, float)[..., None] * _LINE.first_derivative(t),
                      _LINE.second_derivative).validate(),
     "arc parametrization speed vanishes at t = 0"),
    (lambda: make_smooth_boundary(_LINE), "smooth boundary curve must close up: gap 2.236e+00"),
], ids=["two-vertex-polygon", "no-arcs", "infinite-position", "infinite-second-derivative",
        "zero-speed", "open-smooth-curve"])
def test_degenerate_boundaries_are_geometry_errors(build, named):
    with pytest.raises(GeometryError, match=re.escape(named)):
        build()


def test_make_boundary_takes_only_arcs():
    # each corner is measured from its arcs; no angle is stated
    assert list(inspect.signature(make_boundary).parameters) == ["arcs"]


_QUADRILATERAL = np.array([(0.601, 0.224), (0.235, 0.957), (-0.690, 0.636), (0.411, -0.478)])


@pytest.mark.parametrize("vertices", [_QUADRILATERAL * 1e6 + 0.1, _QUADRILATERAL * 1e7 / 3,
                                      _QUADRILATERAL + 1e6],
                         ids=["scaled 1e6 and shifted", "scaled 1e7/3", "shifted 1e6"])
def test_checks_follow_the_size_of_the_coordinates(vertices):
    # rounding in the edge ends leaves closure gaps of 2.9e-11 and 1.2e-10
    # on the first two, and rounding in the differenced positions of the
    # third an error of 5.4e-6 relative to its unit-size derivatives
    b = make_polygon(vertices)
    assert [tuple(c.point) for c in b.corners] == [tuple(v) for v in vertices]


def test_smooth_boundary_closure_follows_the_size_of_the_coordinates():
    # sin(2 pi) leaves a closure gap of 4.2e-10 on a circle of radius 1.7e6
    arc = circle_arc(1.7e6, (0.3e6, -0.2e6))
    assert make_smooth_boundary(arc).arcs == (arc,)


def test_make_boundary_rejects_clockwise():
    with pytest.raises(GeometryError):
        make_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_validate_rejects_wrong_derivatives():
    # the heart's second derivative without its pi^2 cos(pi t) term, then a
    # line whose first derivative is off by a tenth of a percent
    heart = make_example_domain("heart", 5 * math.pi / 3).arcs[0]

    def second_without_term(t):
        t = np.asarray(t, float)
        return heart.second_derivative(t) - np.stack(
            [np.zeros_like(t), math.pi**2 * np.cos(math.pi * t)], axis=-1)

    line = line_arc((0.0, 0.0), (1.0, 2.0))
    for arc in (MacroArc(heart.position, heart.first_derivative, second_without_term),
                MacroArc(line.position, lambda t: 1.001 * line.first_derivative(t),
                         line.second_derivative)):
        with pytest.raises(GeometryError, match="central differences"):
            arc.validate()


def test_flat_corner_rejected():
    # three collinear points make a chi = 0 "corner"
    with pytest.raises(GeometryError):
        make_polygon([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)])


def test_phi_range_errors():
    with pytest.raises(ParameterError):
        make_example_domain("heart", math.pi)
    with pytest.raises(ParameterError):
        make_example_domain("teardrop", 1.5 * math.pi)
    with pytest.raises(ParameterError):
        make_example_domain("boomerang", 0.5 * math.pi)
    for phi in (0.5 * math.pi, None):
        with pytest.raises(ParameterError, match="unknown example domain 'lens'"):
            make_example_domain("lens", phi)
    # both ends of each open range, NaN and a missing angle name the
    # family and its range
    for name, lo, hi, span in (("heart", math.pi, 2 * math.pi, "(pi, 2 pi)"),
                               ("teardrop", 0.0, math.pi, "(0, pi)"),
                               ("boomerang", math.pi, 2 * math.pi, "(pi, 2 pi)")):
        for phi in (lo, hi, math.nan, None):
            with pytest.raises(ParameterError, match=re.escape(f"{name} angle must be in {span}")):
                make_example_domain(name, phi)


def test_polygon_decomposition_zero_deviation_and_cap(triangle_dec):
    # segments coincide with their tangents; what remains is the rounding
    # floor of the perpendicular-distance measurement
    assert triangle_dec.deviation.max() <= 1e-15
    # speed matching shrinks one side of the capped 0.25 fractions:
    # corner 0 joins the hypotenuse (speed 2 sqrt 2) to the bottom (speed 2)
    assert triangle_dec.subarcs[1].b == pytest.approx(0.25, abs=1e-15)
    assert 1.0 - triangle_dec.subarcs[0].a == pytest.approx(0.25 / math.sqrt(2), abs=1e-15)


def test_heart_decomposition_deviation(heart_dec):
    assert heart_dec.deviation.max() <= 3.87e-7
    assert len(heart_dec.subarcs) == 3
    kinds = [s.kind for s in heart_dec.subarcs]
    assert kinds == [GAMMA, UPSILON, CENTRAL]


def test_corner_speed_matching(all_corner_decs):
    for dec in all_corner_decs.values():
        n = dec.boundary.n_corners
        for k in range(n):
            _, d_gamma, _ = subarc_geometry(dec, 3 * k, 0.0)
            _, d_upsilon, _ = subarc_geometry(dec, 3 * k + 1, 0.0)
            ratio = np.linalg.norm(d_gamma) / np.linalg.norm(d_upsilon)
            assert abs(ratio - 1.0) <= 1e-10


def test_corner_incidence(all_corner_decs):
    for dec in all_corner_decs.values():
        for k in range(dec.boundary.n_corners):
            p_gamma, _, _ = subarc_geometry(dec, 3 * k, 0.0)
            p_upsilon, _, _ = subarc_geometry(dec, 3 * k + 1, 0.0)
            corner = dec.boundary.corners[k].point
            assert np.abs(p_gamma - corner).max() <= 1e-12
            assert np.abs(p_upsilon - corner).max() <= 1e-12


def test_subarc_intervals_tile_macro_arcs(all_corner_decs):
    for dec in all_corner_decs.values():
        n = dec.boundary.n_corners
        for ell in range(len(dec.boundary.arcs)):
            windows = sorted((s.a, s.b) for s in dec.subarcs if s.macro_index == ell)
            assert windows[0][0] == 0.0
            assert windows[-1][1] == 1.0
            for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
                assert b1 == a2


def test_node_table_matches_chain_rule(all_corner_decs, circle_dec):
    # the node table reads each macro arc once; the reference evaluates
    # every sub-arc by the chain rule over its window, reversed on gamma
    # arcs, and folds each upsilon arc's s = 0 node into the corner's row
    params = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    for name, dec in {**all_corner_decs, "circle": circle_dec}.items():
        umap, ref = UnknownMap(dec, params), node_table_at(dec, params)
        np.testing.assert_array_equal(umap.arc, ref.arc, err_msg=name)
        for key in ("macro_t", "points", "q", "diagonal"):
            got, want = getattr(umap, key), getattr(ref, key)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15 * np.abs(want).max(),
                                       err_msg=f"{name} {key}")
        for k, corner in enumerate(dec.boundary.corners):
            assert np.array_equal(umap.points[:, umap.corner[k]], corner.point), (name, k)


def test_subarc_window_map(triangle_dec):
    dec = triangle_dec
    e_up = dec.subarcs[3 * 1 + 1].b
    assert abs(dec.subarcs[3 * 1 + 1].macro_t(0.5) - 0.5 * e_up) <= 1e-16
    e_gm = 1.0 - dec.subarcs[3 * 1].a
    assert abs(dec.subarcs[3 * 1].macro_t(0.5) - (1.0 - 0.5 * e_gm)) <= 1e-16
    central = dec.subarcs[5]
    assert abs(central.macro_t(0.25) - (central.a + 0.25 * (central.b - central.a))) <= 1e-16
    # each window runs from a to b, a gamma arc's from b to a, so that
    # both corner arcs start at the corner
    for sub in dec.subarcs:
        start, end = (sub.b, sub.a) if sub.kind == GAMMA else (sub.a, sub.b)
        assert sub.macro_t(0.0) == start
        assert abs(sub.macro_t(1.0) - end) <= 1e-16
    # arrays map entrywise, onto the chain-rule reference's sub-arc points
    s = np.array([0.0, 0.21, 1.0])
    for i in (0, 1, 5):
        sub = dec.subarcs[i]
        np.testing.assert_array_equal(sub.macro_t(s), [sub.macro_t(x) for x in s])
        p_sub, _, _ = subarc_geometry(dec, i, s)
        p_macro = dec.boundary.arcs[sub.macro_index].position(sub.macro_t(s))
        assert np.abs(p_sub - p_macro).max() <= 1e-12


def test_decompose_errors(heart_boundary):
    with pytest.raises(ParameterError):
        decompose(heart_boundary, 0.0)
    # a NaN deviation bound would let every bisection step fail
    with pytest.raises(ParameterError, match="delta must be positive, got nan"):
        decompose(heart_boundary, math.nan)


def test_collapsed_corner_arcs_are_geometry_errors():
    # scaled by 1e12, the coordinates round at 1.2e-4, far above delta =
    # 1e-12: a corner arc within delta of its tangent line has collapsed,
    # its far end rounding to the corner point, so there is no corner arc
    with pytest.raises(GeometryError, match=re.escape(
            "corner 0: no corner arc stays within delta = 1e-12 of its tangent line")):
        decompose(make_polygon(_QUADRILATERAL * 1e12), 1e-12)
    # scaled by 1e6, the bisection finds arcs whose rounding stays within
    # delta, and the speed match moves them off it
    with pytest.raises(GeometryError, match=re.escape(
            "corner 0: could not meet the deviation bound delta = 1e-12")):
        decompose(make_polygon(_QUADRILATERAL * 1e6), 1e-12)


def test_infinite_delta_takes_the_fraction_cap(heart_boundary):
    # every deviation passes, so one side of the corner keeps the 1/4 cap
    # and the other is shrunk to match its speed; the heart's one macro
    # arc keeps a central section of at least half its interval
    dec = decompose(heart_boundary, math.inf)
    head, tail = dec.subarcs[1].b, 1.0 - dec.subarcs[0].a
    assert max(head, tail) == pytest.approx(0.25, rel=1e-15, abs=0.0)
    central = dec.subarcs[2]
    assert central.b - central.a >= 0.5 - 1e-15


def _sequential_fraction(arc, at_head, corner, tangent, delta, cap):
    """The one-side-at-a-time bisection that decompose replaced: every
    deviation samples np.linspace(lo, hi, 201) in its own position call
    and normalizes the tangent again."""
    def dev(e):
        t = np.linspace(0.0, e, 201) if at_head else np.linspace(1.0 - e, 1.0, 201)
        p = np.asarray(arc.position(t), float) - corner
        that = tangent / np.linalg.norm(tangent)
        return float(np.abs(p[:, 0] * that[1] - p[:, 1] * that[0]).max())

    if dev(cap) <= delta:
        return cap, dev
    lo, hi = 0.0, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dev(mid) <= delta:
            lo = mid
        else:
            hi = mid
    return lo, dev


def _sequential_corners(boundary, delta, cap=0.25):
    """Head and tail fractions, corner speed and deviation as the
    sequential bisection and the speed match after it give them."""
    n = boundary.n_corners
    out = np.empty((4, n))
    for k in range(n):
        prev = (k - 1) % n
        corner = boundary.corners[k].point
        d_head = np.asarray(boundary.arcs[k].first_derivative(0.0), float)
        d_tail = np.asarray(boundary.arcs[prev].first_derivative(1.0), float)
        v_head, v_tail = float(np.linalg.norm(d_head)), float(np.linalg.norm(d_tail))
        e_head, dev_head = _sequential_fraction(boundary.arcs[k], True, corner, d_head,
                                                delta, cap)
        e_tail, dev_tail = _sequential_fraction(boundary.arcs[prev], False, corner, d_tail,
                                                delta, cap)
        e_head_m = min(e_head, e_tail * v_tail / v_head)
        e_tail_m = e_head_m * v_head / v_tail
        got = max(dev_head(e_head_m), dev_tail(e_tail_m))
        while got > delta:
            e_head_m *= 1.0 - 1e-9
            e_tail_m *= 1.0 - 1e-9
            got = max(dev_head(e_head_m), dev_tail(e_tail_m))
        out[:, k] = e_head_m, e_tail_m, e_head_m * v_head, got
    return out


_SWEEP_ANGLES = {
    "heart": [k * math.pi / 20 for k in range(21, 40)] + [1.98 * math.pi],
    "teardrop": [k * math.pi / 20 for k in range(1, 20)] + [0.02 * math.pi],
    "boomerang": [k * math.pi / 20 for k in range(21, 40)] + [1.98 * math.pi],
}


@pytest.mark.parametrize("family", _SWEEP_ANGLES)
def test_measured_corner_angle_is_the_family_angle(family):
    # the angle measured from the arcs is the family's phi to a few ulps, at
    # the sweep's angles and at the table's; the worst measured is 1 ulp
    for phi in [*_SWEEP_ANGLES[family], example_config(family).phi]:
        omega = make_example_domain(family, phi).corners[0].interior_angle
        assert abs(omega - phi) <= 4 * math.ulp(phi), (family, phi, omega)


def test_triangle_corner_angles_to_one_ulp():
    angles = [c.interior_angle for c in make_example_domain("triangle").corners]
    for omega, want in zip(angles, (math.pi / 4, math.pi / 2, math.pi / 4)):
        assert abs(omega - want) <= math.ulp(want), (angles, want)


@pytest.mark.parametrize("name, phi", [("heart", 5 * math.pi / 3), ("triangle", None)])
def test_decompose_calls_no_arc_derivative(name, phi):
    # each corner keeps its one-sided derivatives, so decompose samples
    # only positions
    boundary, calls = make_example_domain(name, phi), []

    def counted(fn, callable_name):
        def f(t):
            calls.append(callable_name)
            return fn(t)
        return f

    arcs = tuple(MacroArc(*(counted(getattr(arc, c), c) for c in
                            ("position", "first_derivative", "second_derivative")))
                 for arc in boundary.arcs)
    decompose(Boundary(arcs, boundary.corners), 1e-6)
    assert calls and set(calls) == {"position"}


def _half_disc():
    """The arc (cos pi t, sin pi t) closed by the segment from (-1, 0) to
    (1, 0): two right-angle corners, each with one straight side."""
    w = math.pi

    def on_circle(t, scale, f, g):
        t = np.asarray(t, float)
        return scale * np.stack([f(w * t), g(w * t)], axis=-1)

    arc = MacroArc(lambda t: on_circle(t, 1.0, np.cos, np.sin),
                   lambda t: on_circle(t, w, lambda a: -np.sin(a), np.cos),
                   lambda t: on_circle(t, -w * w, np.cos, np.sin))
    return make_boundary([arc, line_arc((-1.0, 0.0), (1.0, 0.0))])


@pytest.mark.parametrize("family", ["tables", *_SWEEP_ANGLES, "half_disc"])
def test_lockstep_bisection_matches_sequential(family):
    # the four table domains (the triangle's corners join two different
    # arcs), the 60 angles of the benchmark's angle sweep, and the half-disc,
    # whose straight side holds the cap while its curved side is bisected
    if family == "tables":
        cases = [(cfg.build_boundary(), cfg.delta) for cfg in map(
            example_config, ("heart", "teardrop", "boomerang", "triangle"))]
    elif family == "half_disc":
        cases = [(_half_disc(), delta) for delta in (1e-6, 1e-9)]
    else:
        cases = [(cfg.build_boundary(), cfg.delta) for cfg in
                 (example_config(family, phi=phi) for phi in _SWEEP_ANGLES[family])]
    for case, (boundary, delta) in enumerate(cases):
        dec = decompose(boundary, delta)
        want = _sequential_corners(boundary, delta)
        # the windows hold the fractions: compare 1 - tail as decompose wrote it
        got = (np.array([sub.b for sub in dec.subarcs[1::3]]),
               np.array([sub.a for sub in dec.subarcs[0::3]]), dec.corner_speed, dec.deviation)
        want[1] = 1.0 - want[1]
        for name, g, w in zip(("head", "1 - tail", "speed", "deviation"), got, want):
            assert np.array_equal(g, w), (family, case, name, g, w)


def test_smooth_boundary_decomposition(circle_dec):
    assert circle_dec.boundary.n_corners == 0
    assert len(circle_dec.subarcs) == 1
    assert circle_dec.subarcs[0].kind == CENTRAL
    assert (circle_dec.subarcs[0].a, circle_dec.subarcs[0].b) == (0.0, 1.0)


def test_winding_number():
    b = make_example_domain("heart", 5 * math.pi / 3)
    pts = boundary_polyline(b, 4096)
    assert winding_number(pts, (0.5, 0.0)) == 1
    assert winding_number(pts, (-0.1, 0.0)) == 0
    assert winding_number(pts, (100.0, -100.0)) == 0


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf)])
def test_winding_number_rejects_non_finite_point(point):
    pts = boundary_polyline(make_example_domain("heart", 5 * math.pi / 3), 4096)
    with pytest.raises(ParameterError):
        winding_number(pts, point)


def _polyline_sweep(polyline, points, batch=64):
    """Inside flag of each point, from the parity of the polyline edges a
    horizontal ray from it crosses, and a lower bound on its distance to
    the closed polyline: the nearest vertex's distance less half the
    longest edge, and the exact distance to the nearest edge where the
    vertex is within one longest edge."""
    ax, ay = polyline[:, 0], polyline[:, 1]
    ex, ey = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    inside = []
    for lo in range(0, len(points), batch):
        px, py = points[lo:lo + batch, :1], points[lo:lo + batch, 1:]
        above = ay > py
        row, col = np.nonzero(above != np.roll(above, -1, axis=1))
        cross = ax[col] + (py[row, 0] - ay[col]) / ey[col] * ex[col] > px[row, 0]
        inside.append(np.bincount(row[cross], minlength=len(px)) % 2)
    edge = np.hypot(ex, ey).max()
    dist = cKDTree(polyline).query(points)[0]
    close = np.flatnonzero(dist < edge)
    dist -= edge / 2.0
    dx, dy = points[close, :1] - ax, points[close, 1:] - ay
    s = np.clip((dx * ex + dy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    dist[close] = np.hypot(dx - s * ex, dy - s * ey).min(axis=1)
    return np.concatenate(inside), dist


def _field_map_candidates(boundary, k):
    """The first round of bench/workloads.py::exterior_points for field_map
    domain k at seeds 101-110: 1600 candidates per seed, one step out along
    the outward normal from a uniform boundary point, log-uniform over
    1e-3 to 1e2.  At these seeds the first round keeps all 800 points."""
    out = []
    for seed in range(101, 111):
        rng = np.random.default_rng([seed, k])
        arc = rng.integers(len(boundary.arcs), size=1600)
        t = rng.uniform(0.0, 1.0, size=1600)
        d = 10.0 ** rng.uniform(-3.0, 2.0, size=1600)
        for ell, macro in enumerate(boundary.arcs):
            sel = arc == ell
            tangent = macro.first_derivative(t[sel])
            normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
            normal /= np.linalg.norm(normal, axis=1, keepdims=True)
            out.append(macro.position(t[sel]) + d[sel, None] * normal)
    return np.concatenate(out)


@pytest.mark.parametrize("name", ["heart", "teardrop", "boomerang", "triangle"])
def test_point_locator_matches_full_sweep(all_corner_decs, name):
    # field_map's points (heart and boomerang) and random points, all at
    # least 1e-6 off the boundary: the sweep over the 4096-point polyline,
    # within 1e-7 of the arcs, decides them as the arcs do
    boundary = all_corner_decs[name].boundary
    polyline = boundary_polyline(boundary)
    lo, hi = polyline.min(axis=0) - 0.1, polyline.max(axis=0) + 0.1
    points = [np.random.default_rng(9).uniform(lo, hi, (2000, 2))]
    if name in ("heart", "boomerang"):
        points.append(_field_map_candidates(boundary, ("heart", "boomerang").index(name)))
    points = np.concatenate(points)
    inside, dist = _polyline_sweep(polyline, points)
    points, inside = points[dist >= 2e-6], inside[dist >= 2e-6]
    near, winding = PointLocator(boundary).locate(points)
    assert not near.any()
    assert np.array_equal(winding, inside)
    assert 0.05 * len(points) < inside.sum() < len(points)


_EXTREME_DOMAINS = [("heart", 1.98 * math.pi), ("boomerang", 1.98 * math.pi),
                    ("teardrop", 0.02 * math.pi)]


@pytest.mark.parametrize("name, phi", [("heart", 5 * math.pi / 3), ("teardrop", 2 * math.pi / 3),
                                       ("boomerang", 1.5 * math.pi), ("triangle", None),
                                       *_EXTREME_DOMAINS])
def test_point_locator_panels_hold_their_arc_pieces(name, phi):
    # 64 samples per panel: in the chord frame the arc piece runs forward
    # along the chord and stays within the strip half-width
    boundary = make_example_domain(name, phi)
    loc = PointLocator(boundary)
    t = loc.t0[:, None] + loc.width[:, None] * np.linspace(0.0, 1.0, 64)
    for k, arc in enumerate(boundary.arcs):
        own = loc.arc == k
        z = as_complex(arc.position(t[own]))
        w = (z - loc.start[own, None]) * loc.frame[own, None]
        assert np.all(np.abs(w.imag) <= loc.strip[own, None])
        assert np.all(np.diff(w.real, axis=1) > 0.0)
    assert len(loc.length) >= 128 * len(boundary.arcs)


def _offset_probes(boundary, offset):
    """Points offset from the boundary by offset: along both normals at
    every panel end and panel middle of a 128-panel split of each arc,
    and, at each corner, along the bisector of the larger of the two
    wedges there, where the corner is the nearest boundary point.  Returns
    the points and their winding numbers (0 outward, 1 inward)."""
    pts, wind = [], []
    t = np.linspace(0.0, 1.0, 257)[1:-1]
    for arc in boundary.arcs:
        d1 = arc.first_derivative(t)
        normal = np.stack([d1[:, 1], -d1[:, 0]], axis=1) / np.linalg.norm(d1, axis=1)[:, None]
        p = arc.position(t)
        pts += [p + offset * normal, p - offset * normal]
        wind += [np.zeros(len(t), int), np.ones(len(t), int)]
    n = len(boundary.arcs)
    for k, corner in enumerate(boundary.corners):
        out = boundary.arcs[k].first_derivative(0.0)
        back = -boundary.arcs[(k - 1) % n].first_derivative(1.0)
        b = out / np.linalg.norm(out) + back / np.linalg.norm(back)
        pts.append(corner.point - offset * b[None] / np.linalg.norm(b))
        # the larger wedge is the exterior one at a convex corner
        wind.append(np.array([0 if corner.interior_angle < math.pi else 1]))
    return np.concatenate(pts), np.concatenate(wind)


@pytest.mark.parametrize("name", ["heart", "teardrop", "boomerang", "triangle"])
def test_point_locator_near_tolerance(all_corner_decs, name):
    # probes at 0.5 and 2 times the locator's own tolerance, 1e-9 of the
    # largest extent of its panel ends
    boundary = all_corner_decs[name].boundary
    loc = PointLocator(boundary)
    ends = np.concatenate([loc.start, loc.end])
    assert loc.tol == 1e-9 * max(np.ptp(ends.real), np.ptp(ends.imag))
    probes, _ = _offset_probes(boundary, 0.5 * loc.tol)
    units = np.exp(1j * np.pi / 4 * np.arange(8))
    at_corners = np.concatenate([c.point + 0.5 * loc.tol * np.stack([units.real, units.imag], 1)
                                 for c in boundary.corners])
    assert loc.locate(np.concatenate([probes, at_corners]))[0].all()
    probes, winding = _offset_probes(boundary, 2.0 * loc.tol)
    near, got = loc.locate(probes)
    assert not near.any()
    assert np.array_equal(got, winding)
