import math

import numpy as np
import pytest

from cornerbie import GeometryError, ParameterError, example_config
from cornerbie.geometry import (
    CENTRAL,
    GAMMA,
    UPSILON,
    MacroArc,
    boundary_polyline,
    decompose,
    line_arc,
    macro_param_of,
    make_boundary,
    make_example_domain,
    make_polygon,
    subarc_eval,
    winding_number,
)


def test_unit_square_corner_parameters():
    sq = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for corner in sq.corners:
        assert abs(corner.interior_angle - math.pi / 2) <= 1e-12
        assert abs(corner.chi - 0.5) <= 1e-12
        assert abs(corner.beta - 2.0 / 3.0) <= 1e-12


def test_triangle_corner_parameters():
    tri = make_example_domain("triangle")
    expected = {(-1.25, -0.75): 0.75, (0.75, -0.75): 0.5, (0.75, 1.25): 0.75}
    for corner in tri.corners:
        chi = expected[tuple(corner.point)]
        assert abs(corner.chi - chi) <= 1e-12
        assert abs(corner.beta - 1.0 / (1.0 + chi)) <= 1e-12


def test_heart_corner_and_closure():
    b = make_example_domain("heart", 5 * math.pi / 3)
    assert np.linalg.norm(b.arcs[0].position(0.0)) <= 1e-14
    assert np.linalg.norm(b.arcs[0].position(1.0)) <= 1e-13
    assert abs(b.corners[0].chi - (-2.0 / 3.0)) <= 1e-12
    assert abs(b.corners[0].beta - 0.6) <= 1e-12


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
    tri = make_example_domain("triangle")
    n = len(tri.arcs)
    for k, corner in enumerate(tri.corners):
        d_in = tri.arcs[(k - 1) % n].first_derivative(1.0)
        d_out = tri.arcs[k].first_derivative(0.0)
        ang = (math.atan2(-d_in[1], -d_in[0]) - math.atan2(d_out[1], d_out[0])) % (2 * math.pi)
        assert abs(ang - corner.interior_angle) <= 1e-10


def test_make_boundary_rejects_open_curve():
    arcs = [line_arc((0, 0), (1, 0)), line_arc((1, 0.5), (0, 0))]
    with pytest.raises(GeometryError):
        make_boundary(arcs, [math.pi / 2, math.pi / 2])


def test_make_boundary_rejects_clockwise():
    with pytest.raises(GeometryError):
        make_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])


def test_make_boundary_rejects_angle_mismatch():
    sq = [(0, 0), (1, 0), (1, 1), (0, 1)]
    arcs = [line_arc(sq[k], sq[(k + 1) % 4]) for k in range(4)]
    with pytest.raises(GeometryError):
        make_boundary(arcs, [math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 3])


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
    with pytest.raises(ParameterError):
        make_example_domain("lens", 0.5 * math.pi)


def test_polygon_decomposition_zero_deviation_and_cap(triangle_dec):
    # segments coincide with their tangents; what remains is the rounding
    # floor of the perpendicular-distance measurement
    assert triangle_dec.deviation.max() <= 1e-15
    # speed matching shrinks one side of the capped 0.25 fractions:
    # corner 0 joins the hypotenuse (speed 2 sqrt 2) to the bottom (speed 2)
    assert triangle_dec.head_fraction[0] == pytest.approx(0.25, abs=1e-15)
    assert triangle_dec.tail_fraction[0] == pytest.approx(0.25 / math.sqrt(2), abs=1e-15)


def test_heart_decomposition_deviation(heart_dec):
    assert heart_dec.deviation.max() <= 3.87e-7
    assert heart_dec.n_subarcs == 3
    kinds = [s.kind for s in heart_dec.subarcs]
    assert kinds == [GAMMA, UPSILON, CENTRAL]


def test_corner_speed_matching(all_corner_decs):
    for dec in all_corner_decs.values():
        n = dec.n_corners
        for k in range(n):
            _, d_gamma, _ = subarc_eval(dec, 3 * k, 0.0)
            _, d_upsilon, _ = subarc_eval(dec, 3 * k + 1, 0.0)
            ratio = np.linalg.norm(d_gamma) / np.linalg.norm(d_upsilon)
            assert abs(ratio - 1.0) <= 1e-10


def test_corner_incidence(all_corner_decs):
    for dec in all_corner_decs.values():
        for k in range(dec.n_corners):
            p_gamma, _, _ = subarc_eval(dec, 3 * k, 0.0)
            p_upsilon, _, _ = subarc_eval(dec, 3 * k + 1, 0.0)
            corner = dec.boundary.corners[k].point
            assert np.abs(p_gamma - corner).max() <= 1e-12
            assert np.abs(p_upsilon - corner).max() <= 1e-12


def test_subarc_intervals_tile_macro_arcs(all_corner_decs):
    for dec in all_corner_decs.values():
        n = dec.n_corners
        for ell in range(len(dec.boundary.arcs)):
            windows = sorted((s.a, s.b) for s in dec.subarcs if s.macro_index == ell)
            assert windows[0][0] == 0.0
            assert windows[-1][1] == 1.0
            for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
                assert b1 == a2


def test_subarc_eval_chain_rule(heart_dec):
    dec = heart_dec
    gamma = dec.subarcs[0]
    length = gamma.b - gamma.a
    _, d1, d2 = subarc_eval(dec, 0, 0.0)
    macro_d1 = dec.boundary.arcs[0].first_derivative(1.0)
    macro_d2 = dec.boundary.arcs[0].second_derivative(1.0)
    np.testing.assert_allclose(d1, -length * macro_d1, rtol=1e-14)
    np.testing.assert_allclose(d2, length**2 * macro_d2, rtol=1e-14)
    # central arc point is the plain affine image
    central = dec.subarcs[2]
    s = 0.3
    p, _, _ = subarc_eval(dec, 2, s)
    t = central.a + (central.b - central.a) * s
    np.testing.assert_allclose(p, dec.boundary.arcs[0].position(t), rtol=0, atol=0)


def test_macro_param_of(triangle_dec):
    dec = triangle_dec
    e_up = dec.head_fraction[1]
    ell, sm = macro_param_of(dec, 3 * 1 + 1, 0.5)
    assert ell == 1 and abs(sm - 0.5 * e_up) <= 1e-16
    e_gm = dec.tail_fraction[1]
    ell, sm = macro_param_of(dec, 3 * 1, 0.5)
    assert ell == 0 and abs(sm - (1.0 - 0.5 * e_gm)) <= 1e-16
    central = dec.subarcs[5]
    ell, sm = macro_param_of(dec, 5, 0.25)
    assert ell == central.macro_index
    assert abs(sm - (central.a + 0.25 * (central.b - central.a))) <= 1e-16
    # consistency: the mapped macro point equals the sub-arc point
    for i in (0, 1, 5):
        for s in (0.0, 0.21, 1.0):
            ell, sm = macro_param_of(dec, i, s)
            p_sub, _, _ = subarc_eval(dec, i, s)
            p_macro = dec.boundary.arcs[ell].position(sm)
            assert np.abs(p_sub - p_macro).max() <= 1e-12


def test_decompose_errors(heart_boundary):
    with pytest.raises(ParameterError):
        decompose(heart_boundary, 0.0)
    with pytest.raises(ParameterError):
        decompose(heart_boundary, 1e-7, cap=0.6)
    # with the cap at exactly 1/2 a single-arc domain has no room for a
    # central section once the deviation allows full-cap corner arcs
    with pytest.raises(GeometryError):
        decompose(heart_boundary, 1e3, cap=0.5)


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
    """head_fraction, tail_fraction, corner_speed and deviation as the
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


@pytest.mark.parametrize("family", ["tables", *_SWEEP_ANGLES])
def test_lockstep_bisection_matches_sequential(family):
    # the four table domains (the triangle's corners join two different
    # arcs) and the 60 angles of the benchmark's angle sweep
    if family == "tables":
        configs = [example_config(name) for name in ("heart", "teardrop", "boomerang",
                                                     "triangle")]
    else:
        configs = [example_config(family, phi=phi) for phi in _SWEEP_ANGLES[family]]
    for cfg in configs:
        boundary = cfg.build_boundary()
        dec = decompose(boundary, cfg.delta)
        want = _sequential_corners(boundary, cfg.delta)
        got = (dec.head_fraction, dec.tail_fraction, dec.corner_speed, dec.deviation)
        for name, g, w in zip(("head", "tail", "speed", "deviation"), got, want):
            assert np.array_equal(g, w), (cfg.domain, cfg.phi, name, g, w)


def test_smooth_boundary_decomposition(circle_dec):
    assert circle_dec.n_corners == 0
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
