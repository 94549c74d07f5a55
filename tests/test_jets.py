import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrvc.errors import DimensionMismatch, DomainError, OrderError
from wrvc.jets import (
    Jet,
    _exponents,
    _product_triples,
    _raised,
    compose_rows,
    contract_coeffs,
    derivative_coeffs,
    gradient_index,
    hessian_index,
    mul_coeffs,
    n_coeffs,
)


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


def test_integer_power_starts_from_the_base(monkeypatch):
    import wrvc.jets

    products = []
    original = wrvc.jets.mul_coeffs

    def counted(a, b, dim, order):
        products.append(1)
        return original(a, b, dim, order)

    monkeypatch.setattr(wrvc.jets, "mul_coeffs", counted)
    x = Jet.variable(0, 0.7, 2, 4) + Jet.variable(1, -0.4, 2, 4) * 0.3
    repeated = Jet.constant(1.0, 2, 4)
    for k, cost in enumerate([0, 0, 1, 2, 2, 3, 3, 4, 3]):
        products.clear()
        power = x**k
        assert len(products) == cost, k
        assert np.allclose(power.coeffs, repeated.coeffs, rtol=1e-15, atol=0.0)
        repeated = repeated * x
    assert np.array_equal((x**1).coeffs, x.coeffs)
    assert (x**1).coeffs is not x.coeffs       # a new value, not a view
    assert np.array_equal((x**0).coeffs, Jet.constant(1.0, 2, 4).coeffs)
    assert np.allclose((x**-2 * x**2).coeffs, Jet.constant(1.0, 2, 4).coeffs, atol=1e-14)


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


# -- index tables in any dimension ----------------------------------------


def reference_exponents(dim, order):
    """Every exponent tuple of degree <= order, from multisets of variables,
    sorted by degree, then descending lex."""
    rows = [tuple(c.count(i) for i in range(dim))
            for degree in range(order + 1)
            for c in combinations_with_replacement(range(dim), degree)]
    return sorted(rows, key=lambda a: (sum(a), [-x for x in a]))


@pytest.mark.parametrize("dim", range(1, 7))
def test_exponent_table_matches_an_independent_enumeration(dim):
    for order in range(7):
        assert _exponents(dim, order).tolist() == \
            [list(a) for a in reference_exponents(dim, order)]
    rank = {a: i for i, a in enumerate(reference_exponents(dim, 2))}
    unit = [tuple(row) for row in np.eye(dim, dtype=int)]
    assert gradient_index(dim).tolist() == [rank[u] for u in unit]
    slots, factors = hessian_index(dim)
    assert slots.tolist() == [[rank[tuple(np.add(u, v))] for v in unit] for u in unit]
    assert np.array_equal(factors, 1.0 + np.eye(dim))


@pytest.mark.parametrize("dim", range(1, 7))
def test_product_triples_and_derivative_matrices_identities(dim):
    for order in range(7):
        E = np.array(reference_exponents(dim, order)).reshape(-1, dim)
        deg = E.sum(axis=1)
        ia, ib, ic, starts = _product_triples(dim, order)
        assert np.array_equal(E[ia] + E[ib], E[ic])
        # each pair of total degree <= order exactly once, sorted by product
        # slot and row-major within a slot; starts opens each slot's run
        pairs = np.argwhere(deg[:, None] + deg <= order)
        rank = {tuple(a): i for i, a in enumerate(E.tolist())}
        slot = np.array([rank[tuple(E[i] + E[j])] for i, j in pairs])
        assert np.array_equal(np.stack([ia, ib], axis=1),
                              pairs[np.argsort(slot, kind="stable")])
        assert np.array_equal(starts, np.flatnonzero(np.diff(ic, prepend=-1)))
        if order == 0:
            continue
        # d/dx_l reaches x^beta of order - 1 from x^(beta + e_l), factor beta_l + 1,
        # and gathers every x^alpha with alpha_l > 0 exactly once
        slots, factors = _raised(dim, order)
        lower = np.array(reference_exponents(dim, order - 1)).reshape(-1, dim)
        assert np.array_equal(E[slots], lower + np.eye(dim, dtype=int)[:, None, :])
        assert np.array_equal(factors, lower.T + 1.0)
        for l in range(dim):
            assert np.array_equal(np.sort(slots[l]), np.flatnonzero(E[:, l]))
        # a gathered -0.0 comes out as +0.0, as from a sum with exact zeros
        d = derivative_coeffs(np.full((2, len(E)), -0.0), dim, order)
        assert d.shape == (dim, 2, len(lower)) and not np.signbit(d).any()


def test_repr_names_variables_beyond_four():
    assert repr(Jet.variable(4, 1.0, 5, 2)) == "Jet(dim=5, order=2: 1 + 1*x4)"
    assert repr(Jet.variable(1, 0.0, 2, 1) * 3.0) == "Jet(dim=2, order=1: 3*y)"


@pytest.mark.parametrize("dim", range(1, 7))
def test_product_coeffs_matches_per_entry_products(dim):
    rng = np.random.default_rng(dim)
    for order in range(6):
        nc = n_coeffs(dim, order)

        def close(got, want):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0.0, atol=1e-14 * max(1.0, np.abs(want).max()))

        a, b = rng.standard_normal((2, 3, nc)), rng.standard_normal((2, 3, nc))
        close(contract_coeffs("...ij,...ij->...ij", a, b, dim, order),
              np.array([[mul_coeffs(a[i, j], b[i, j], dim, order) for j in range(3)]
                        for i in range(2)]))
        s = rng.standard_normal(nc)          # a scalar jet times a jet matrix
        close(contract_coeffs("...,...ij->...ij", s, b, dim, order),
              np.array([[mul_coeffs(s, b[i, j], dim, order) for j in range(3)]
                        for i in range(2)]))
        c = rng.standard_normal((3, 4, nc))  # jet matrices (2, 3) @ (3, 4)
        close(contract_coeffs("...ik,...kj->...ij", a, c, dim, order),
              np.array([[sum(mul_coeffs(a[i, k], c[k, j], dim, order) for k in range(3))
                         for j in range(4)] for i in range(2)]))
        # no matmul: a matrix into the first index of a 3-tensor, as Gamma = g^-1 [ij, l]
        t = rng.standard_normal((3, 2, 3, nc))
        close(contract_coeffs("...kl,...lij->...kij", c.swapaxes(0, 1), t, dim, order),
              np.array([[[sum(mul_coeffs(c[l, k], t[l, i, j], dim, order) for l in range(3))
                          for j in range(3)] for i in range(2)] for k in range(4)]))


@pytest.mark.parametrize("dim", range(1, 5))
def test_stacked_rows_equal_each_row_alone(dim):
    # a leading batch axis changes no row's arithmetic: products, jet-matrix
    # products and compositions of a stack equal those of each row, bit for bit
    rng = np.random.default_rng(40 + dim)
    for order in range(5):
        nc = n_coeffs(dim, order)
        a, b = rng.standard_normal((2, 5, 3, nc))
        got = mul_coeffs(a, b, dim, order)
        assert got.shape == (5, 3, nc)
        assert all(np.array_equal(got[r, s], mul_coeffs(a[r, s], b[r, s], dim, order))
                   for r in range(5) for s in range(3))
        got = mul_coeffs(a[:, 0], b[0, 0], dim, order)   # broadcast against one jet
        assert all(np.array_equal(got[r], mul_coeffs(a[r, 0], b[0, 0], dim, order))
                   for r in range(5))
        m, q = rng.standard_normal((2, 4, 3, 3, nc))
        matmul = "...ik,...kj->...ij"
        got = contract_coeffs(matmul, m, q, dim, order)
        assert all(np.array_equal(got[r], contract_coeffs(matmul, m[r], q[r], dim, order))
                   for r in range(4))
        u = 0.3 * a[:, 0]
        u[:, 0] += 1.5
        for fn in ("exp", "log"):
            got = compose_rows(fn, u, dim, order)
            assert all(np.array_equal(got[r], Jet(dim, order, u[r]).apply(fn).coeffs)
                       for r in range(5))

