import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerbie import CoincidentPointError, ParameterError
from cornerbie.assembly import DiscretizationParams, UnknownMap, build_system
from cornerbie.geometry import (
    GAMMA,
    UPSILON,
    Boundary,
    Corner,
    Decomposition,
    MacroArc,
    SubArc,
    decompose,
    line_arc,
    make_polygon,
)
from cornerbie.kernels import double_layer, mellin_kernel
from cornerbie.quadrature import gauss_radau_left

from conftest import arc_nodes_at, kernel_block, remainder_at, subarc_geometry


def corner_remainder_richardson(dec, i, j, steps=(1e-4, 5e-5, 2.5e-5)):
    """Reference diagonal-limit estimate of M(0, 0) and its tolerance.

    Extrapolates K(h, h) - L(h, h) along t = s = h to h -> 0 (first and
    second order); the difference of the two orders estimates the error.
    The closed form that remainder_at puts at t = s = 0 is checked
    against it: the two agree up to the extrapolation tolerance plus the
    roundoff floor of the near-singular difference, which is why the
    closed form is what enters the matrix.
    """
    chi = dec.boundary.corners[i // 3].chi
    h = np.asarray(steps, float)
    f = np.diag(kernel_block(dec, i, j, h, h)) - mellin_kernel(chi, h, h)
    first = 2.0 * f[1:] - f[:-1]
    second = (4.0 * first[1] - first[0]) / 3.0
    return float(second), float(abs(second - first[1]))


def corner_value(dec, i, j):
    """The closed-form corner value M(0, 0) that enters the matrix."""
    return remainder_at(dec, i, j, [0.0], [0.0])[0, 0]


def field_kernel(dec, i, x, y, t):
    """Exterior-field kernel at (x, y) from sub-arc i at parameters t."""
    g = arc_nodes_at(dec, i, t)
    k, _ = double_layer((np.array([x]), np.array([y])), g.points, g.tangent)
    return k[0]


def test_circle_kernel_is_minus_pi(circle_dec):
    nodes = gauss_radau_left(24).nodes
    block = kernel_block(circle_dec, 0, 0, nodes, nodes)
    assert np.abs(block + math.pi).max() <= 1e-12


def test_circle_constant_row_sums(circle_dec):
    # quadrature of the constant kernel: sum_h lam_h K(x_h, s) = -pi
    rule = gauss_radau_left(24)
    block = kernel_block(circle_dec, 0, 0, rule.nodes, rule.nodes)
    sums = block @ rule.weights
    assert np.abs(sums + math.pi).max() <= 1e-10


def test_straight_segment_diagonal_is_zero(square_dec):
    for i in (0, 1, 2):
        assert kernel_block(square_dec, i, i, [0.3], [0.3])[0, 0] == 0.0


def test_far_field_kernel_bound(heart_dec):
    # |K| <= |sigma_j'(t)| / distance, from Cauchy-Schwarz on the numerator
    for t, s in ((0.2, 0.9), (0.5, 0.1), (0.77, 0.4)):
        val = kernel_block(heart_dec, 2, 2, [t], [s])[0, 0]
        p_t, d_t, _ = subarc_geometry(heart_dec, 2, t)
        p_s, _, _ = subarc_geometry(heart_dec, 2, s)
        bound = np.linalg.norm(d_t) / np.linalg.norm(p_s - p_t)
        assert abs(val) <= bound * (1 + 1e-12)


def test_diagonal_limit_consistency(circle_dec, heart_dec):
    # off-diagonal branch extrapolated along s -> t (second-order Richardson
    # from moderate steps, below which the chord cancellation floor bites)
    # approaches the diagonal value
    cases = [(circle_dec, 0), (heart_dec, 2)]
    for dec, arc in cases:
        t = 0.37
        diag = kernel_block(dec, arc, arc, [t], [t])[0, 0]
        f = kernel_block(dec, arc, arc, [t], t + np.array([4e-3, 2e-3, 1e-3]))[:, 0]
        first = [2 * f[1] - f[0], 2 * f[2] - f[1]]
        extrap = (4 * first[1] - first[0]) / 3
        assert abs(extrap - diag) <= 1e-6


def test_mellin_kernel_values():
    assert mellin_kernel(0.5, 1.0, 1.0) == pytest.approx(-0.5, abs=1e-15)
    assert mellin_kernel(0.3, 0.7, 0.0) == 0.0
    t, s = 0.4, 0.7
    chi = 0.35
    lhs = mellin_kernel(-chi, t, s)
    rhs = -s * math.sin(-chi * math.pi) / (s * s + 2 * t * s * math.cos(chi * math.pi) + t * t)
    assert lhs == pytest.approx(rhs, rel=1e-15)
    assert lhs == pytest.approx(-mellin_kernel(chi, t, s), rel=1e-15)


def test_mellin_kernel_errors():
    with pytest.raises(ParameterError, match=r"at \(t, s\) = \(0.0, 0.0\), chi = 0.5:"):
        mellin_kernel(0.5, 0.0, 0.0)
    # chi = 1 turns the denominator into (s - t)^2; the first zero of a
    # broadcast grid is named
    with pytest.raises(ParameterError, match=r"at \(t, s\) = \(0.5, 0.5\), chi = 1.0:"):
        mellin_kernel(1.0, np.array([0.25, 0.5]), np.array([[0.75], [0.5]]))


def test_straight_corner_remainder_vanishes(square_dec):
    grid = [0.0, 0.05, 0.3, 0.7, 0.99]
    worst = max(float(np.abs(remainder_at(square_dec, i, j, grid, grid)).max())
                for i, j in ((0, 1), (1, 0)))
    assert worst <= 1e-12


def test_remainder_equals_kernel_on_s_axis(teardrop_dec):
    # L(t, 0) = 0, so M(t, 0) = K(t, 0) for t > 0
    for t in (0.3, 0.8):
        assert remainder_at(teardrop_dec, 0, 1, [t], [0.0])[0, 0] == pytest.approx(
            kernel_block(teardrop_dec, 0, 1, [t], [0.0])[0, 0], rel=1e-14)


def test_remainder_bounded_near_corner(all_corner_decs):
    # the wedge kernel grows like 1/h along the diagonal while the remainder
    # must stay small: certify |M(h, h)| <= 1e-4 |K(h, h)| and an absolute
    # bound.  (A literal non-increase of |M(h, h)| is not testable here: for
    # nearly straight corner arcs the true remainder is below the roundoff
    # of evaluating positions next to the parameter wrap, so the samples are
    # noise; the relative certificate is what the cancellation claims.)
    for name, dec in all_corner_decs.items():
        for k in range(dec.boundary.n_corners):
            for pair in ((3 * k, 3 * k + 1), (3 * k + 1, 3 * k)):
                for h in (1e-2, 1e-3, 1e-4):
                    m = abs(remainder_at(dec, *pair, [h], [h])[0, 0])
                    kk = abs(kernel_block(dec, *pair, [h], [h])[0, 0])
                    assert m <= 1e-4 * kk, (name, k, pair, h, m, kk)
                    assert m <= 1e-2, (name, k, pair, h, m)


def test_remainder_bounded_on_teardrop_grid(teardrop_dec):
    # no growth of the remainder as the corner is approached on a (t, s) grid
    grid = (1e-3, 1e-4, 1e-5)
    worst = max(float(np.abs(remainder_at(teardrop_dec, i, j, grid, grid)).max())
                for i, j in ((0, 1), (1, 0)))
    assert worst <= 1e-2


def test_corner_limit_square_is_zero(square_dec):
    assert arc_nodes_at(square_dec, 1, [0.0]).curvature[0] == 0.0
    est, tol = corner_remainder_richardson(square_dec, 0, 1)
    assert abs(est) <= 1e-10
    assert corner_value(square_dec, 0, 1) == 0.0


def _parabolic_corner(curvature_scale):
    """Speed-matched synthetic corner from exact polynomial arcs.

    Positions are pure products, so kernel evaluations carry no trig
    argument-reduction noise; the gamma macro arc ends at the corner and
    is wrapped as a reversed sub-arc, the upsilon one starts there.
    """
    omega = 0.7 * math.pi
    th0 = 0.37
    vb = np.array([math.cos(th0), math.sin(th0)])
    va = np.array([math.cos(th0 + omega), math.sin(th0 + omega)])
    wa = curvature_scale * np.array([0.4, -1.1])
    wb = curvature_scale * np.array([-0.7, 0.3])

    def gamma_macro():
        def position(t):
            u = 1.0 - np.asarray(t, float)
            return u[..., None] * va + 0.5 * u[..., None] ** 2 * wa

        def first(t):
            u = 1.0 - np.asarray(t, float)
            return np.broadcast_to(-va, u.shape + (2,)) - u[..., None] * wa

        def second(t):
            t = np.asarray(t, float)
            return np.broadcast_to(wa, t.shape + (2,)).copy()

        return MacroArc(position, first, second)

    def upsilon_macro():
        def position(t):
            t = np.asarray(t, float)
            return t[..., None] * vb + 0.5 * t[..., None] ** 2 * wb

        def first(t):
            t = np.asarray(t, float)
            return np.broadcast_to(vb, t.shape + (2,)) + t[..., None] * wb

        def second(t):
            t = np.asarray(t, float)
            return np.broadcast_to(wb, t.shape + (2,)).copy()

        return MacroArc(position, first, second)

    boundary = Boundary((gamma_macro(), upsilon_macro()),
                           (Corner(0, np.zeros(2), -va, vb),))
    for arc in boundary.arcs:
        arc.validate()
    subarcs = (SubArc(GAMMA, 0, 0.0, 1.0), SubArc(UPSILON, 1, 0.0, 1.0))
    return Decomposition(boundary, subarcs, np.array([1.0]), np.array([0.0]), 1.0)


def test_corner_limit_matches_richardson_on_gentle_arcs():
    # the corner value of M is direction dependent for strongly curved arcs;
    # both the diagonal-limit estimate and the edge-limit closed form vanish
    # linearly with the arc curvature, and their gap does too.  The
    # decomposition drives the corner arcs toward straight tangent segments,
    # which is where the matrix samples them.
    for scale in (1e-2, 1e-3, 1e-4):
        dec = _parabolic_corner(scale)
        for pair in ((0, 1), (1, 0)):
            closed = corner_value(dec, *pair)
            est, _ = corner_remainder_richardson(dec, *pair)
            assert abs(closed) <= 0.5 * scale
            assert abs(est) <= 0.5 * scale
            assert abs(closed - est) <= 0.5 * scale


def test_corner_limit_teardrop_head_pair(teardrop_dec):
    # the teardrop corner arcs are straight to 5e-11; both the closed form
    # and the diagonal extrapolation of the head-side pair are near zero
    closed = corner_value(teardrop_dec, 0, 1)
    est, _ = corner_remainder_richardson(teardrop_dec, 0, 1)
    assert abs(closed) <= 1e-8
    assert abs(est) <= 1e-8


@pytest.mark.parametrize("chi", (-2.0 / 3.0, -0.5, 0.5, 2.0 / 3.0, 0.75))
def test_corner_coefficient_matches_integral_limit(chi):
    # lim_{s->0+} int_0^1 L(t, s) dt = -chi pi; substitute t = s u and
    # integrate the rational tail numerically up to u = 1/s
    from scipy.integrate import quad

    s = 1e-6
    f = lambda u: 1.0 / (u * u + 2.0 * u * math.cos(chi * math.pi) + 1.0)
    v1, _ = quad(f, 0.0, 2.0, limit=200)
    v2, _ = quad(f, 2.0, 1.0 / s, limit=200)
    numeric = -math.sin(chi * math.pi) * (v1 + v2)
    assert abs(numeric - (-chi * math.pi)) <= 1e-4


def test_field_kernel_values_and_reversal():
    # segment (t, 0) with field point (0, 1) at t = 0 gives -1
    seg = line_arc((0.0, 0.0), (1.0, 0.0))
    d = np.asarray(seg.first_derivative(0.0), float)
    p = np.asarray(seg.position(0.0), float)
    val = (d[1] * (0.0 - p[0]) - d[0] * (1.0 - p[1])) / ((0.0 - p[0]) ** 2 + (1.0 - p[1]) ** 2)
    assert val == -1.0
    k, _ = double_layer((np.array([0.0]), np.array([1.0])), p[:, None], d[:, None])
    assert k[0, 0] == -1.0


def test_node_table_tangent_is_forward_on_reversed_arcs(triangle_dec):
    # on the reversed gamma arcs the node table's weighted tangent q is w
    # times the forward tangent, so the field kernel built from it is the
    # forward formula, not its negative; the arc's first row is the corner
    # node, which also holds its upsilon partner's tangent
    umap = UnknownMap(triangle_dec, DiscretizationParams(mu=8, nu=32, c=100.0, eps=1e-6))
    for i, sub in enumerate(triangle_dec.subarcs):
        if sub.kind != GAMMA:
            continue
        own = slice(umap.bounds[i] + 1, umap.bounds[i + 1])
        arc = triangle_dec.boundary.arcs[sub.macro_index]
        tm = sub.b - (sub.b - sub.a) * umap.t[own]
        pm = np.asarray(arc.position(tm), float)
        dm = (sub.b - sub.a) * np.asarray(arc.first_derivative(tm), float)
        np.testing.assert_allclose(umap.q[:, own] / umap.w[own], dm.T, rtol=1e-15)
        k, _ = double_layer((np.array([5.0]), np.array([4.0])), umap.points[:, own],
                            umap.q[:, own])
        dx, dy = 5.0 - pm[:, 0], 4.0 - pm[:, 1]
        h_forward = (dm[:, 1] * dx - dm[:, 0] * dy) / (dx**2 + dy**2)
        np.testing.assert_allclose(k[0] / umap.w[own], h_forward, rtol=1e-13)


def test_field_kernel_far_bound(heart_dec):
    t = np.linspace(0.0, 0.99, 23)
    vals = field_kernel(heart_dec, 2, 30.0, 40.0, t)
    _, d1, _ = subarc_geometry(heart_dec, 2, t)
    pts, _, _ = subarc_geometry(heart_dec, 2, t)
    dist = np.hypot(30.0 - pts[:, 0], 40.0 - pts[:, 1])
    assert np.all(np.abs(vals) <= np.linalg.norm(d1, axis=-1) / dist * (1 + 1e-12))


def test_field_kernel_near_singularity_error(heart_dec):
    # a field point on a node of sub-arc 2: the kernel there is not finite
    # and its squared distance is 0; the boundary's point locator, which
    # clears every point before eval_exterior forms the kernel, rejects it
    params = DiscretizationParams(mu=8, nu=32, c=300.0, eps=1e-3)
    umap = build_system(heart_dec, params).unknown_map
    own = np.flatnonzero(umap.arc == 2)
    c = own[np.argmin(np.abs(umap.t[own] - 0.5))]
    x, y = umap.points[:, c]
    k, d2 = double_layer((np.array([x]), np.array([y])), umap.points, umap.q)
    assert d2[0, c] == 0.0 and not np.isfinite(k[0, c])
    near, _ = heart_dec.boundary.locator.locate(np.array([x, y]))
    assert near[0]


def test_coincidence_guard():
    # two sides of a square meet at the corner: asking for the kernel at the
    # shared point with distinct arc indices must signal a node-placement bug
    sq = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    dec = decompose(sq, 1e-7)
    with pytest.raises(CoincidentPointError):
        kernel_block(dec, 0, 1, np.array([0.0]), np.array([0.0]))
    # the remainder exempts only the corner node pair itself
    with pytest.raises(CoincidentPointError):
        remainder_at(dec, 0, 1, np.array([0.0]), np.array([0.0, 1e-20]))


def test_remainder_block_matches_scalar(teardrop_dec):
    t = np.array([0.0, 0.2, 0.9])
    s = np.array([0.0, 0.4])
    block = remainder_at(teardrop_dec, 0, 1, t, s)
    for li, sv in enumerate(s):
        for hi, tv in enumerate(t):
            assert block[li, hi] == pytest.approx(
                remainder_at(teardrop_dec, 0, 1, [tv], [sv])[0, 0], rel=1e-14, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(chi=st.one_of(st.floats(-0.95, -0.05), st.floats(0.05, 0.95)),
       t=st.one_of(st.just(0.0), st.floats(1e-8, 1.0)),
       s=st.one_of(st.just(0.0), st.floats(1e-8, 1.0)))
def test_mellin_kernel_properties(chi, t, s):
    # quadrature nodes keep (t, s) either exactly zero or well above the
    # underflow scale of the squared denominator
    if t == 0.0 and s == 0.0:
        return
    val = mellin_kernel(chi, t, s)
    # sign flip is carried entirely by the sine factor
    assert mellin_kernel(-chi, t, s) == pytest.approx(-val, rel=1e-13, abs=1e-300)
    # the kernel vanishes on the s = 0 edge and nowhere blows up off (0, 0)
    if s == 0.0:
        assert val == 0.0
    assert math.isfinite(val)
