import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerbie import ParameterError
from cornerbie.quadrature import gauss_legendre, gauss_radau_left, legendre_table, log_moments

from conftest import classical_legendre_table, oracle_log_moments

EXACTNESS_ORDERS = (1, 2, 4, 8, 16, 32, 64)


def monomial_exactness_error(rule, degree):
    approx = float(rule.weights @ rule.nodes**degree)
    exact = 1.0 / (degree + 1)
    return abs(approx - exact) / exact


@pytest.mark.parametrize("m", EXACTNESS_ORDERS)
def test_legendre_exact_to_2m_minus_1(m):
    rule = gauss_legendre(m)
    worst = max(monomial_exactness_error(rule, d) for d in range(2 * m))
    assert worst <= 1e-12


@pytest.mark.parametrize("m", EXACTNESS_ORDERS)
def test_radau_exact_to_2m(m):
    rule = gauss_radau_left(m)
    worst = max(monomial_exactness_error(rule, d) for d in range(2 * m + 1))
    assert worst <= 1e-12


def test_legendre_m1_is_midpoint():
    rule = gauss_legendre(1)
    assert rule.nodes.tolist() == [0.5]
    assert rule.weights.tolist() == [1.0]


def test_legendre_m2_closed_form():
    # solving the four moment equations int x^d = 1/(d+1), d = 0..3 gives
    # symmetric nodes 1/2 -+ sqrt(3)/6 with equal weights
    rule = gauss_legendre(2)
    np.testing.assert_allclose(rule.nodes, [0.5 - math.sqrt(3) / 6, 0.5 + math.sqrt(3) / 6],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=0, atol=1e-15)


def test_legendre_m3_integrates_x5():
    rule = gauss_legendre(3)
    assert abs(float(rule.weights @ rule.nodes**5) - 1.0 / 6.0) <= 1e-14


def test_radau_m1_closed_form():
    rule = gauss_radau_left(1)
    np.testing.assert_allclose(rule.nodes, [0.0, 2.0 / 3.0], rtol=0, atol=1e-16)
    np.testing.assert_allclose(rule.weights, [0.25, 0.75], rtol=0, atol=1e-16)


def test_radau_m2_closed_form():
    # interior nodes are the roots of the monic quadratic orthogonal w.r.t.
    # the weight x on [0, 1]: x^2 - (6/5) x + 3/10, i.e. (6 -+ sqrt(6))/10;
    # weights by moment matching give (16 +- sqrt(6))/36
    rule = gauss_radau_left(2)
    s6 = math.sqrt(6.0)
    np.testing.assert_allclose(rule.nodes, [0.0, (6 - s6) / 10, (6 + s6) / 10],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1.0 / 9.0, (16 + s6) / 36, (16 - s6) / 36],
                               rtol=0, atol=1e-15)


def test_radau_m2_integrates_x4():
    rule = gauss_radau_left(2)
    assert abs(float(rule.weights @ rule.nodes**4) - 0.2) <= 1e-14


@pytest.mark.parametrize("m", EXACTNESS_ORDERS)
def test_radau_endpoint_weight_formula(m):
    rule = gauss_radau_left(m)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] * (m + 1) ** 2 == 1.0


@pytest.mark.parametrize("m", (2, 5, 16, 64, 257))
def test_legendre_node_symmetry(m):
    nodes = gauss_legendre(m).nodes
    assert np.abs(nodes + nodes[::-1] - 1.0).max() <= 1e-14


@pytest.mark.parametrize("m", (1, 3, 64, 512))
def test_weights_positive_sum_one(m):
    for rule in (gauss_legendre(m), gauss_radau_left(m)):
        assert np.all(rule.weights > 0)
        assert abs(math.fsum(rule.weights) - 1.0) <= 1e-14


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=1, max_value=40), data=st.data())
def test_legendre_exact_on_random_polynomials(m, data):
    degree = data.draw(st.integers(min_value=0, max_value=2 * m - 1))
    coeffs = data.draw(st.lists(st.floats(-4, 4), min_size=degree + 1, max_size=degree + 1))
    rule = gauss_legendre(m)
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(1.0) - poly.integ()(0.0)
    approx = float(rule.weights @ poly(rule.nodes))
    assert abs(approx - exact) <= 1e-12 * max(1.0, sum(abs(c) for c in coeffs))


@pytest.mark.parametrize("m", (0, -3, 4097))
def test_rule_order_range_errors(m):
    with pytest.raises(ParameterError):
        gauss_legendre(m)
    with pytest.raises(ParameterError):
        gauss_radau_left(m)


def test_orthonormal_basics():
    assert legendre_table(1, np.array([0.37]))[0, 0] == 1.0
    assert abs(legendre_table(2, np.array([1.0]))[1, 0] - math.sqrt(3.0)) <= 1e-15


def test_orthonormality_via_quadrature():
    rule = gauss_legendre(8)
    table = legendre_table(4, rule.nodes)
    p2, p3 = table[2], table[3]
    assert abs(float(rule.weights @ (p2 * p3))) <= 1e-13
    assert abs(float(rule.weights @ (p2 * p2)) - 1.0) <= 1e-13
    # the whole table at the order the right-hand side uses
    rule = gauss_legendre(256)
    table = legendre_table(256, rule.nodes)
    assert np.abs((table * rule.weights) @ table.T - np.eye(256)).max() <= 1e-12


def test_legendre_table_matches_classical():
    # p_nu(x) = sqrt(2 nu + 1) P_nu(2x - 1) against the independent oracle, on
    # seven points of [0, 1] and the M-point Gauss-Legendre nodes that the
    # right-hand side tabulates on, within rtol of sqrt(2 nu + 1)
    for M, rtol in ((6, 2e-15), (256, 1e-12), (512, 1e-12)):
        x = np.concatenate((np.linspace(0.0, 1.0, 7), gauss_legendre(M).nodes))
        root = np.sqrt(2.0 * np.arange(M) + 1.0)[:, None]
        classical = root * classical_legendre_table(M - 1, 2.0 * x - 1.0)
        assert (np.abs(legendre_table(M, x) - classical) <= rtol * root).all(), M


def test_log_moments_endpoint_values():
    assert log_moments(0.0, 1)[0] == -1.0
    c = log_moments(0.5, 2)
    assert abs(c[0] - (-1.0 - math.log(2.0))) <= 1e-15
    assert abs(c[1]) <= 1e-15  # integrand odd about z = 1/2


def test_log_moments_against_oracle_spot():
    for s in (0.1, 0.37, 0.9):
        got = log_moments(s, 33)
        want = oracle_log_moments(s, 33)
        assert np.abs(got - want).max() <= 1e-10


@pytest.mark.parametrize("s", (1e-8, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-8))
def test_log_moments_extreme_abscissae(s):
    got = log_moments(s, 256)
    want = oracle_log_moments(s, 256)
    assert np.abs(got - want).max() <= 1e-8


def test_log_moments_grid_property():
    worst64 = worst256 = 0.0
    for s in np.linspace(0.0, 1.0, 101):
        got = log_moments(float(s), 256)
        want = oracle_log_moments(float(s), 256)
        diff = np.abs(got - want)
        worst64 = max(worst64, diff[:64].max())
        worst256 = max(worst256, diff.max())
    assert worst64 <= 1e-10
    assert worst256 <= 1e-8


def test_log_moments_vector_equals_scalar_calls():
    s = np.array([0.0, 0.3, 1.0, 1e-12, 0.5, 1.0 - 1e-12, 0.0, 0.91])
    for M in (1, 2, 33, 256):
        rows = log_moments(s, M)
        assert rows.shape == (len(s), M)
        for k, sk in enumerate(s):
            scalar = log_moments(float(sk), M)
            assert scalar.shape == (M,)
            assert np.array_equal(rows[k], scalar), (M, sk)


def test_log_moments_range_errors():
    with pytest.raises(ParameterError):
        log_moments(0.5, 0)
    with pytest.raises(ParameterError):
        log_moments(0.5, 513)
    with pytest.raises(ParameterError):
        log_moments(-0.1, 8)
    with pytest.raises(ParameterError):
        log_moments(np.array([0.2, 1.5, 0.4]), 8)
    with pytest.raises(ParameterError):
        log_moments(np.array([0.2, np.nan]), 8)
