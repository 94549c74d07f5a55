import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrvc.errors import DimensionMismatch, DomainError, OrderError
from wrvc.jets import Jet


def random_jet(rng, dim, order, scale=1.0, shift=0.0):
    j = Jet(dim, order, rng.uniform(-scale, scale, Jet(dim, order).coeffs.shape))
    j.coeffs[0] += shift
    return j


# -- constructors ------------------------------------------------------


def test_variable_layout():
    j = Jet.variable(0, 2.0, 2, 2)
    expected = np.zeros(6)
    expected[0] = 2.0
    expected[1] = 1.0
    assert np.array_equal(j.coeffs, expected)


def test_variable_second_slot():
    j = Jet.variable(1, 0.0, 2, 1)
    assert j.coeffs.tolist() == [0.0, 0.0, 1.0]


def test_variable_square():
    x = Jet.variable(0, 3.0, 1, 2)
    assert np.allclose((x * x).coeffs, [9.0, 6.0, 1.0])


def test_variable_index_out_of_range():
    with pytest.raises(DimensionMismatch):
        Jet.variable(2, 0.0, 2, 3)


# -- multiplication ----------------------------------------------------


def test_mul_bivariate():
    x = Jet.variable(0, 0.0, 2, 2)
    y = Jet.variable(1, 0.0, 2, 2)
    p = (1.0 + x) * (1.0 + y)
    # graded order: 1, x, y, x^2, xy, y^2
    assert np.allclose(p.coeffs, [1, 1, 1, 0, 1, 0])


def test_mul_identity():
    rng = np.random.default_rng(0)
    a = random_jet(rng, 3, 3)
    one = Jet.constant(1.0, 3, 3)
    assert np.allclose((a * one).coeffs, a.coeffs)


def test_mul_truncates():
    x = Jet.variable(0, 0.0, 1, 2)
    a = 1.0 + x + x * x          # 1 + x + x^2
    b = 1.0 - x
    prod = a * b                 # 1 - x^3, truncated at order 2
    assert np.allclose(prod.coeffs, [1.0, 0.0, 0.0], atol=1e-15)


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Jet(2, 2) * Jet(3, 2)


def test_mixed_order_truncates_down():
    x2 = Jet.variable(0, 1.0, 1, 2)
    x5 = Jet.variable(0, 1.0, 1, 5)
    assert (x2 * x5).order == 2
    assert (x2 + x5).order == 2


# -- analytic composition ----------------------------------------------


def test_exp_series():
    x = Jet.variable(0, 0.0, 1, 3)
    e = x.exp()
    assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])


def test_sqrt_binomial():
    x = Jet.variable(0, 0.0, 1, 2)
    s = (1.0 + x).apply("pow", 0.5)
    assert np.allclose(s.coeffs, [1.0, 0.5, -0.125])


def test_log_exp_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_jet(rng, 3, 4)
        back = a.exp().log()
        assert np.allclose(back.coeffs, a.coeffs, atol=1e-12)


def test_log_domain_error():
    with pytest.raises(DomainError):
        Jet.constant(-1.0, 1, 2).log()
    with pytest.raises(DomainError):
        Jet.constant(0.0, 2, 3).sqrt()


def test_sin_cos_derivative_chain():
    x = Jet.variable(0, 0.3, 1, 4)
    s, c = x.sin(), x.cos()
    # sin' = cos at the base point, read off the linear coefficient
    assert math.isclose(s.coeffs[1], math.cos(0.3), rel_tol=1e-14)
    assert math.isclose(c.coeffs[1], -math.sin(0.3), rel_tol=1e-14)
    assert math.isclose((s * s + c * c).value, 1.0, rel_tol=1e-14)


def test_pow_negative_integer_any_sign_base():
    x = Jet.variable(0, -2.0, 1, 3)
    inv = x.apply("pow", -1.0)
    assert np.allclose((inv * x).coeffs, [1, 0, 0, 0], atol=1e-14)


def test_reciprocal_guard():
    with pytest.raises(DomainError):
        Jet.variable(0, 0.0, 1, 2).reciprocal()


# -- partial extraction -------------------------------------------------


def test_partial_x2y():
    x = Jet.variable(0, 0.0, 2, 3)
    y = Jet.variable(1, 0.0, 2, 3)
    a = x * x * y
    assert a.partial((2, 1)) == pytest.approx(2.0)
    assert a.partial((0, 0)) == pytest.approx(0.0)


def test_partial_constant_term():
    a = Jet.constant(4.5, 2, 2)
    assert a.partial((0, 0)) == pytest.approx(4.5)


def test_partial_exp_third():
    x = Jet.variable(0, 0.0, 1, 3)
    assert x.exp().partial((3,)) == pytest.approx(1.0)


def test_partial_order_exceeded():
    with pytest.raises(OrderError):
        Jet(1, 2).partial((3,))


# -- ring axioms and derivation property ---------------------------------

coeff_floats = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def jets(draw, dim=2, order=3):
    n = Jet(dim, order).coeffs.shape[0]
    vals = draw(st.lists(coeff_floats, min_size=n, max_size=n))
    return Jet(dim, order, np.array(vals))


@settings(max_examples=60, deadline=None)
@given(jets(), jets(), jets())
def test_ring_axioms(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    scale = max(1.0, np.abs(lhs.coeffs).max())
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13 * scale)
    lhs = a * (b + c)
    rhs = a * b + a * c
    scale = max(1.0, np.abs(lhs.coeffs).max())
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13 * scale)


@settings(max_examples=40, deadline=None)
@given(jets(), jets())
def test_derivation_property(a, b):
    e0 = (1, 0)
    lhs = (a * b).partial(e0)
    rhs = a.partial(e0) * b.value + a.value * b.partial(e0)
    assert lhs == pytest.approx(rhs, abs=1e-13)


@settings(max_examples=30, deadline=None)
@given(jets(order=4), jets(order=4))
def test_exp_homomorphism(a, b):
    lhs = (a + b).exp()
    rhs = a.exp() * b.exp()
    scale = max(1.0, np.abs(lhs.coeffs).max())
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12 * scale)


def test_polynomial_exactness():
    # polynomials of degree <= order are reproduced without truncation error
    x = Jet.variable(0, 1.5, 2, 4)
    y = Jet.variable(1, -0.5, 2, 4)
    p = 2.0 + 3.0 * x * y - x * x * y * y
    # compare against an independent reconstruction from partials
    assert p.partial((1, 1)) == pytest.approx(3.0 - 4.0 * 1.5 * (-0.5))
    assert p.partial((2, 2)) == pytest.approx(-4.0)
    assert p.value == pytest.approx(2.0 + 3.0 * (1.5 * -0.5) - (1.5 * -0.5) ** 2)


def test_derivative_jet_matches_partial():
    rng = np.random.default_rng(3)
    a = random_jet(rng, 3, 4)
    d0 = a.derivative(0)
    assert d0.value == pytest.approx(a.partial((1, 0, 0)))
    assert d0.partial((0, 1, 0)) == pytest.approx(a.partial((1, 1, 0)))
