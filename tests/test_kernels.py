import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerbie import CoincidentPointError, ExteriorDomainError, ParameterError
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
    subarc_eval,
)
from cornerbie.kernels import (
    field_kernel_at,
    mellin_chi,
    mellin_corner_coefficient,
    mellin_kernel,
)
from cornerbie.quadrature import gauss_radau_left

from conftest import arc_nodes_at, kernel_block, remainder_at


def corner_remainder_richardson(dec, i, j, steps=(1e-4, 5e-5, 2.5e-5)):
    """Reference diagonal-limit estimate of M(0, 0) and its tolerance.

    Extrapolates K(h, h) - L(h, h) along t = s = h to h -> 0 (first and
    second order); the difference of the two orders estimates the error.
    The closed form that remainder_at puts at t = s = 0 is checked
    against it: the two agree up to the extrapolation tolerance plus the
    roundoff floor of the near-singular difference, which is why the
    closed form is what enters the matrix.
    """
    chi = mellin_chi(dec, i, j)
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
    return field_kernel_at(x, y, g.points.T, g.derivs.T,
                           np.array([0, len(g.points)]))


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
        p_t, d_t, _ = subarc_eval(heart_dec, 2, t)
        p_s, _, _ = subarc_eval(heart_dec, 2, s)
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
    with pytest.raises(ParameterError):
        mellin_kernel(0.5, 0.0, 0.0)
    with pytest.raises(ParameterError):
        mellin_kernel(0.0, 0.5, 0.5)
    with pytest.raises(ParameterError):
        mellin_kernel(1.0, 0.5, 0.5)


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
        for k in range(dec.n_corners):
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


def test_remainder_rejects_non_mellin_pairs(heart_dec):
    # assembly takes the remainder only where the pair test names a corner
    assert mellin_chi(heart_dec, 0, 2) is None
    assert mellin_chi(heart_dec, 0, 0) is None
    chi = heart_dec.boundary.corners[0].chi
    assert mellin_chi(heart_dec, 0, 1) == mellin_chi(heart_dec, 1, 0) == chi


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
                           (Corner(0, np.zeros(2), omega),))
    for arc in boundary.arcs:
        arc.validate()
    subarcs = (SubArc(0, GAMMA, 0, 0.0, 1.0, True),
               SubArc(1, UPSILON, 1, 0.0, 1.0, False))
    return Decomposition(boundary, subarcs, np.array([1.0]), np.array([1.0]),
                         np.array([1.0]), np.array([0.0]), 1.0)


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


def test_mellin_corner_coefficient_values():
    assert mellin_corner_coefficient(0.5) == pytest.approx(-math.pi / 2, rel=1e-15)
    assert mellin_corner_coefficient(-2.0 / 3.0) == pytest.approx(2 * math.pi / 3, rel=1e-15)
    with pytest.raises(ParameterError):
        mellin_corner_coefficient(0.0)


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
    assert abs(numeric - mellin_corner_coefficient(chi)) <= 1e-4


def test_field_kernel_values_and_reversal(triangle_dec):
    # segment (t, 0) with field point (0, 1) at t = 0 gives -1
    seg = line_arc((0.0, 0.0), (1.0, 0.0))
    d = np.asarray(seg.first_derivative(0.0), float)
    p = np.asarray(seg.position(0.0), float)
    val = (d[1] * (0.0 - p[0]) - d[0] * (1.0 - p[1])) / ((0.0 - p[0]) ** 2 + (1.0 - p[1]) ** 2)
    assert val == -1.0

    t = np.array([0.25, 0.6])
    h_gamma = field_kernel(triangle_dec, 0, 5.0, 4.0, t)
    # same physical points through the macro parametrization, forward sense
    sub = triangle_dec.subarcs[0]
    arc = triangle_dec.boundary.arcs[sub.macro_index]
    tm = sub.b - (sub.b - sub.a) * t
    pm = np.asarray(arc.position(tm), float)
    dm = (sub.b - sub.a) * np.asarray(arc.first_derivative(tm), float)
    dx, dy = 5.0 - pm[:, 0], 4.0 - pm[:, 1]
    h_forward = (dm[:, 1] * dx - dm[:, 0] * dy) / (dx**2 + dy**2)
    np.testing.assert_allclose(h_gamma, -h_forward, rtol=1e-13)


def test_field_kernel_far_bound(heart_dec):
    t = np.linspace(0.0, 0.99, 23)
    vals = field_kernel(heart_dec, 2, 30.0, 40.0, t)
    _, d1, _ = subarc_eval(heart_dec, 2, t)
    pts, _, _ = subarc_eval(heart_dec, 2, t)
    dist = np.hypot(30.0 - pts[:, 0], 40.0 - pts[:, 1])
    assert np.all(np.abs(vals) <= np.linalg.norm(d1, axis=-1) / dist * (1 + 1e-12))


def test_field_kernel_near_singularity_error(heart_dec):
    p, _, _ = subarc_eval(heart_dec, 2, 0.5)
    with pytest.raises(ExteriorDomainError):
        field_kernel(heart_dec, 2, float(p[0]), float(p[1]), np.array([0.5]))


@pytest.mark.parametrize("offset, raises", [(0.5e-12, True), (2e-12, False)])
def test_field_kernel_distance_threshold(offset, raises):
    # the test runs on squared distances against (1e-12)^2; offsets on
    # either side of 1e-12, off a source node along each axis
    t = np.array([0.0, 0.25, 0.5])
    src = np.stack([t, np.zeros(3)])
    dsrc = np.stack([np.ones(3), np.zeros(3)])
    bounds = np.array([0, 2, 3])
    for x, y in ((0.5, offset), (0.5 + offset, 0.0)):
        if raises:
            with pytest.raises(ExteriorDomainError, match="of sub-arc 1$"):
                field_kernel_at(x, y, src, dsrc, bounds)
        else:
            assert np.all(np.isfinite(field_kernel_at(x, y, src, dsrc, bounds)))


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
