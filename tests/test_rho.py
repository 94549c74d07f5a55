import math
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrvc.errors import DeterminacyError, DomainError, OrderError
from wrvc.models import builtin_model, lcf_candidate_ambient, quasi_einstein_coeffs
from wrvc.rho import (
    AmbientExpansion,
    RhoSeries,
    determinacy_cap,
    f_second_residual,
    l_operator,
    l_operator_series,
    lambda_one_series,
    load_ambient_file,
    obstruction_tensors,
    poincare_to_ambient,
    save_ambient_file,
    volume_coefficients,
)
from wrvc.weighted import sigma_k_phi


def sym(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (a + a.T)


def spd(rng, n, scale=0.2):
    return np.eye(n) + scale * sym(rng, n)


# -- series arithmetic ---------------------------------------------------


def test_mul_truncates_to_min_order():
    a = RhoSeries(np.array([1.0, 2.0, 3.0]))
    b = RhoSeries(np.array([1.0, 1.0]))
    c = a * b
    assert c.K == 1
    assert np.allclose(c.coeffs, [1.0, 3.0])


def test_scalar_inverse_roundtrip():
    rng = np.random.default_rng(1)
    s = RhoSeries(np.concatenate([[2.0], rng.uniform(-1, 1, 6)]))
    prod = s * s.scalar_inverse()
    expected = np.zeros(7)
    expected[0] = 1.0
    assert np.allclose(prod.coeffs, expected, atol=1e-12)


def test_scalar_log_exp_roundtrip():
    rng = np.random.default_rng(2)
    s = RhoSeries(np.concatenate([[1.5], rng.uniform(-0.8, 0.8, 5)]))
    back = s.scalar_exp().scalar_log()
    assert np.allclose(back.coeffs, s.coeffs, atol=1e-12)


def test_scalar_pow_binomial():
    lam = 0.3
    s = RhoSeries(np.array([1.0, lam, 0.0, 0.0, 0.0]))
    p = s.scalar_pow(2.5)
    expected = [1.0] + [
        math.prod((2.5 - i) / (i + 1) for i in range(k)) * lam**k
        for k in range(1, 5)
    ]
    assert np.allclose(p.coeffs, expected, atol=1e-13)


def test_matrix_inverse_roundtrip():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-0.3, 0.3, (5, 3, 3))
    coeffs[0] = spd(rng, 3)
    M = RhoSeries(coeffs, "matrix")
    prod = (M * M.matrix_inverse()).coeffs
    prod[0] -= np.eye(3)
    assert np.max(np.abs(prod)) < 1e-12


def test_matrix_det_conformal():
    rng = np.random.default_rng(4)
    g = spd(rng, 3)
    lam = 0.25
    a = quasi_einstein_coeffs(g, 1.0, lam, 6)
    det = a.g_series().matrix_det()
    # (1 + lam rho)^6 det g for a 3x3 conformal family
    expected = np.array([math.comb(6, k) * lam**k for k in range(7)]) * np.linalg.det(g)
    assert np.allclose(det.coeffs, expected, atol=1e-12)


def loop_product(a, b):
    """Reference truncated Cauchy product, one coefficient pair at a time."""
    K = min(len(a), len(b)) - 1
    return np.array([sum(a[i] * b[k - i] for i in range(k + 1))
                     for k in range(K + 1)])


def permutation_det(coeffs, signed=True):
    """Reference determinant series: the Leibniz expansion over all n!
    permutations, with loop products (the permanent when not ``signed``)."""
    n = coeffs.shape[-1]
    total = 0.0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = coeffs[..., 0, perm[0]]
        for i in range(1, n):
            term = loop_product(term, coeffs[..., i, perm[i]])
        total = total + (-1.0) ** (inversions if signed else 0) * term
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_matrix_det_matches_permutation_expansion(n, K, batched, seed):
    rng = np.random.default_rng(seed)
    shape = (K + 1,) + ((3,) if batched else ()) + (n, n)
    coeffs = rng.uniform(-1.0, 1.0, shape)
    got = RhoSeries(coeffs, "matrix").matrix_det().coeffs
    ref = permutation_det(coeffs)
    # rounding is relative to the size of the terms, not of their sum
    scale = permutation_det(np.abs(coeffs), signed=False)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (4,)])
def test_jacobi_formula(n, batch):
    # d/drho log det g_rho = tr(g_rho^{-1} g_rho')
    rng = np.random.default_rng(20 + n)
    coeffs = rng.uniform(-0.3, 0.3, (6,) + batch + (n, n))
    coeffs = 0.5 * (coeffs + np.swapaxes(coeffs, -1, -2))
    coeffs[0] += np.eye(n)
    g = RhoSeries(coeffs, "matrix")
    lhs = g.matrix_det().scalar_log().derivative()
    rhs = (g.matrix_inverse() * g.derivative()).matrix_trace()
    assert lhs.K == rhs.K == 4
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def _forms_agree(got, per_node):
    ref = np.stack(per_node, axis=1)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("kinds, n", [
    (("scalar", "scalar"), None),
    (("matrix", "matrix"), 2),
    (("scalar", "matrix"), 2),
])
def test_product_forms_agree(kinds, n):
    batch = 64
    rng = np.random.default_rng(30)
    K = 4

    def series(kind):
        tail = () if kind == "scalar" else (n, n)
        return RhoSeries(rng.uniform(-1.0, 1.0, (K + 1, batch) + tail), kind)

    a, b = series(kinds[0]), series(kinds[1])
    per_node = [(RhoSeries(a.coeffs[:, p], a.kind) * RhoSeries(b.coeffs[:, p], b.kind)).coeffs
                for p in range(batch)]
    _forms_agree((a * b).coeffs, per_node)


@pytest.mark.parametrize("n, batch", [(2, 1024), (3, 341)])
def test_determinant_forms_agree(n, batch):
    rng = np.random.default_rng(31)
    coeffs = rng.uniform(-1.0, 1.0, (5, batch, n, n))
    got = RhoSeries(coeffs, "matrix").matrix_det().coeffs
    per_node = [RhoSeries(coeffs[:, p], "matrix").matrix_det().coeffs
                for p in range(batch)]
    _forms_agree(got, per_node)


def test_antiderivative_geometric():
    lam = 0.25
    # (1 + lam u)^{-2} integrates to rho / (1 + lam rho)
    base = RhoSeries(np.array([(-1.0) ** k * (k + 1) * lam**k for k in range(6)]))
    anti = base.antiderivative()
    expected = np.concatenate([[0.0], [(-lam) ** k for k in range(6)]])
    assert np.allclose(anti.coeffs, expected, atol=1e-13)


def test_derivative_inverse_of_antiderivative():
    rng = np.random.default_rng(5)
    s = RhoSeries(rng.uniform(-1, 1, 6))
    assert np.allclose(s.antiderivative().derivative().coeffs, s.coeffs)


series_tail = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=5, max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(series_tail, st.floats(min_value=0.5, max_value=3.0))
def test_inverse_roundtrip_property(tail, head):
    s = RhoSeries(np.array([head] + tail))
    prod = (s * s.scalar_inverse()).coeffs
    prod[0] -= 1.0
    assert np.max(np.abs(prod)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(series_tail, st.floats(min_value=-1.0, max_value=1.0))
def test_exp_log_roundtrip_property(tail, head):
    s = RhoSeries(np.array([head] + tail))
    back = s.scalar_exp().scalar_log()
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-11


@settings(max_examples=30, deadline=None)
@given(series_tail, series_tail)
def test_product_derivative_rule_property(a_tail, b_tail):
    a = RhoSeries(np.array([1.0] + a_tail))
    b = RhoSeries(np.array([1.0] + b_tail))
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


def test_singular_leading_matrix_rejected():
    coeffs = np.zeros((3, 2, 2))
    with pytest.raises(DomainError):
        RhoSeries(coeffs, "matrix").matrix_inverse()
    with pytest.raises(DomainError):
        RhoSeries(np.zeros(4)).scalar_inverse()
    with pytest.raises(DomainError):
        RhoSeries(np.array([-1.0, 0.0])).scalar_log()


# -- volume coefficients ---------------------------------------------------


def test_quasi_einstein_closed_form():
    rng = np.random.default_rng(6)
    g = spd(rng, 3)
    a = quasi_einstein_coeffs(g, 0.9, 0.25, 5)
    v = volume_coefficients(a, 2.0)
    expected = [5 / 4, 5 / 8, 5 / 32, 5 / 256, 1 / 1024]
    assert np.allclose(v.v, expected, atol=1e-12)
    # the builtin model's own expansion, within a second
    start = time.perf_counter()
    qe = builtin_model("qe_sphere", 3, 2, 1)
    v = volume_coefficients(qe.ambient_at([0.1, 0.2, 0.0], K=5), qe.m)
    assert time.perf_counter() - start < 1.0
    assert np.allclose(v.v, expected, atol=1e-12)


def test_constant_expansion_zero_coefficients():
    g = np.eye(3)
    gc = np.zeros((5, 3, 3))
    gc[:] = 0.0
    gc[0] = g
    fc = np.zeros(5)
    fc[0] = 1.2
    a = AmbientExpansion(gcoeffs=gc, fcoeffs=fc)
    assert np.allclose(volume_coefficients(a, 2.0).v, 0.0, atol=1e-14)


def test_lcf_matches_sigma_k():
    rng = np.random.default_rng(7)
    for m in (2.0, 2.5, 4.0, 1.3):
        g = spd(rng, 3)
        P = 0.4 * sym(rng, 3)
        Y = rng.uniform(-1, 1)
        a = lcf_candidate_ambient(g, 1.1, P, Y, m, 5)
        v = volume_coefficients(a, m)
        for k in range(1, 6):
            assert v[k] == pytest.approx(
                sigma_k_phi(Y, P, g, m, k), abs=1e-10
            )


def test_v1_is_J_for_first_order_data():
    # first-order data (2P, (Y/m) f) forces v_1 = tr P + Y
    rng = np.random.default_rng(8)
    g = spd(rng, 3)
    P = 0.4 * sym(rng, 3)
    Y, m = 0.6, 2.0
    a = lcf_candidate_ambient(g, 1.4, P, Y, m, 3)
    J = float(np.trace(np.linalg.solve(g, P))) + Y
    assert volume_coefficients(a, m)[1] == pytest.approx(J, abs=1e-12)


def test_determinacy_cap():
    assert determinacy_cap(3, 2.0) is None          # odd total
    assert determinacy_cap(2, 2.0) == 2
    assert determinacy_cap(3, 2.5) is None          # non-integer total
    assert determinacy_cap(3, 3.0) == 3
    a = quasi_einstein_coeffs(np.eye(2), 1.0, 0.1, 3)
    with pytest.raises(DeterminacyError, match="beyond determinacy order 2"):
        volume_coefficients(a, 2.0)
    with pytest.raises(DeterminacyError):
        l_operator(a, 2.0, 3)
    # within the cap both work
    a2 = quasi_einstein_coeffs(np.eye(2), 1.0, 0.1, 2)
    assert len(volume_coefficients(a2, 2.0)) == 2


# -- obstruction tensors -----------------------------------------------------


def test_quasi_einstein_is_flat():
    rng = np.random.default_rng(9)
    g = spd(rng, 3)
    a = quasi_einstein_coeffs(g, 0.8, 0.25, 5)
    assert np.max(np.abs(lambda_one_series(a).coeffs)) < 1e-13
    obs = obstruction_tensors(a)
    assert len(obs.omegas) == 4
    assert np.max(obs.sup_norms()) < 1e-12
    assert np.max(obs.trace_norms(g)) < 1e-12
    assert np.max(f_second_residual(a, 2.0)) < 1e-13


def test_lcf_is_flat():
    rng = np.random.default_rng(10)
    g = spd(rng, 3)
    P = 0.4 * sym(rng, 3)
    a = lcf_candidate_ambient(g, 1.2, P, 0.7, 2.5, 5)
    assert np.max(np.abs(lambda_one_series(a).coeffs)) < 1e-12
    assert np.max(obstruction_tensors(a).sup_norms()) < 1e-12
    assert np.max(f_second_residual(a, 2.5)) < 1e-13


def test_quadratic_bump_obstruction():
    rng = np.random.default_rng(11)
    g = spd(rng, 3)
    h = 0.5 * sym(rng, 3)
    gc = np.zeros((4, 3, 3))
    gc[0] = g
    gc[2] = h
    fc = np.zeros(4)
    fc[0] = 1.0
    a = AmbientExpansion(gcoeffs=gc, fcoeffs=fc)
    assert np.allclose(lambda_one_series(a).coeffs[0], h, atol=1e-13)
    obs = obstruction_tensors(a)
    assert np.allclose(obs.omegas[0], h, atol=1e-13)
    assert np.max(np.abs(obs.omegas[1])) < 1e-13


def test_f_residual_linear_in_corruption():
    rng = np.random.default_rng(12)
    g = spd(rng, 3)
    P = 0.3 * sym(rng, 3)
    a = lcf_candidate_ambient(g, 1.2, P, 0.4, 2.0, 4)
    eps = 1e-3
    a.fcoeffs[2] += eps / 2.0   # Taylor slot stores f''/2
    assert f_second_residual(a, 2.0) == pytest.approx(eps, rel=1e-9)


def test_order_guards():
    a = quasi_einstein_coeffs(np.eye(3), 1.0, 0.2, 1)
    with pytest.raises(OrderError):
        lambda_one_series(a)
    with pytest.raises(OrderError):
        obstruction_tensors(a)
    with pytest.raises(OrderError):
        l_operator(a, 2.0, 5)
    with pytest.raises(DomainError):
        f_second_residual(quasi_einstein_coeffs(np.eye(3), 1.0, 0.2, 3), 0.0)


# -- L operator ----------------------------------------------------------------


def test_l_operator_closed_form():
    rng = np.random.default_rng(13)
    g = spd(rng, 3)
    lam, m = 0.25, 2.0
    a = quasi_einstein_coeffs(g, 0.9, lam, 5)
    ginv = np.linalg.inv(g)
    for k in range(1, 6):
        closed = -math.comb(4, k - 1) * lam ** (k - 1) * ginv
        assert np.allclose(l_operator(a, m, k), closed, atol=1e-12)


def test_l_operator_constant_expansion():
    gc = np.zeros((4, 3, 3))
    gc[0] = np.eye(3)
    fc = np.zeros(4)
    fc[0] = 1.0
    a = AmbientExpansion(gcoeffs=gc, fcoeffs=fc)
    assert np.allclose(l_operator(a, 2.0, 1), -np.eye(3), atol=1e-14)
    for k in (2, 3):
        assert np.max(np.abs(l_operator(a, 2.0, k))) < 1e-14


def test_l_series_product_form():
    # v(rho) int g^{ij} = rho (1 + lam rho)^{n+m-1} g^{ij}, coefficient-wise
    rng = np.random.default_rng(14)
    g = spd(rng, 3)
    lam, m = 0.25, 2.0
    a = quasi_einstein_coeffs(g, 0.9, lam, 5)
    S = l_operator_series(a, m)
    ginv = np.linalg.inv(g)
    for k in range(6):
        coeff = math.comb(4, k - 1) * lam ** (k - 1) if k >= 1 else 0.0
        assert np.allclose(S.coeffs[k], coeff * ginv, atol=1e-12)


# -- substitution and files -----------------------------------------------------


def test_poincare_substitution():
    assert np.allclose(poincare_to_ambient([1.0, 0.0, 1.0]).coeffs, [1.0, -2.0])
    assert np.allclose(
        poincare_to_ambient([0.0, 0.0, 0.0, 0.0, 1.0]).coeffs, [0.0, 0.0, 4.0]
    )


def test_poincare_roundtrip_quasi_einstein_profile():
    lam = 0.25
    # (1 + lam (-r^2/2))^2 as a series in r
    r_coeffs = np.zeros(5)
    r_coeffs[0] = 1.0
    r_coeffs[2] = -lam
    r_coeffs[4] = lam**2 / 4.0
    rho = poincare_to_ambient(r_coeffs)
    assert np.allclose(rho.coeffs, [1.0, 2 * lam, lam**2], atol=1e-14)


def test_poincare_rejects_odd_content():
    with pytest.raises(DomainError):
        poincare_to_ambient([1.0, 0.5, 1.0])


def test_ambient_file_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    g = spd(rng, 3)
    P = 0.3 * sym(rng, 3)
    a = lcf_candidate_ambient(g, 1.2, P, 0.4, 2.0, 4)
    path = tmp_path / "ambient.txt"
    save_ambient_file(a, 2.0, 0.7, path)
    loaded, m, mu = load_ambient_file(path)
    assert m == 2.0 and mu == 0.7
    assert np.allclose(loaded.gcoeffs, a.gcoeffs)
    assert np.allclose(loaded.fcoeffs, a.fcoeffs)
    v0 = volume_coefficients(a, m)
    v1 = volume_coefficients(loaded, m)
    assert np.allclose(v0.v, v1.v)
