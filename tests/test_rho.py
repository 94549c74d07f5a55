import math
import re
import time
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrvc.errors import DeterminacyError, DimensionMismatch, DomainError, OrderError
from wrvc.models import builtin_model, lcf_candidate_ambient
from wrvc.rho import (
    AmbientExpansion,
    RhoSeries,
    _antiderivative,
    _cauchy,
    _derivative,
    _matrix_inverse,
    _scalar_exp,
    _scalar_inverse,
    _scalar_log,
    _symmetrize,
    check_determinacy,
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
from wrvc.suites import SUITE_NAMES, run_suites
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
    s = np.concatenate([[2.0], rng.uniform(-1, 1, 6)])
    prod = _cauchy(s, _scalar_inverse(s))
    expected = np.zeros(7)
    expected[0] = 1.0
    assert np.allclose(prod, expected, atol=1e-12)


def test_scalar_log_exp_roundtrip():
    rng = np.random.default_rng(2)
    s = np.concatenate([[1.5], rng.uniform(-0.8, 0.8, 5)])
    assert np.allclose(_scalar_log(_scalar_exp(s)), s, atol=1e-12)


def test_matrix_inverse_roundtrip():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-0.3, 0.3, (5, 3, 3))
    coeffs[0] = spd(rng, 3)
    prod = _cauchy(coeffs, _matrix_inverse(coeffs), matmul=True)
    prod[0] -= np.eye(3)
    assert np.max(np.abs(prod)) < 1e-12


def test_matrix_det_conformal():
    rng = np.random.default_rng(4)
    g = spd(rng, 3)
    lam = 0.25
    a = lcf_candidate_ambient(g, 1.0, lam * g, 2.0 * lam, 2.0, 6)
    det = RhoSeries(a.gcoeffs).matrix_det()
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
@given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 2**32 - 1))
def test_matrix_det_matches_permutation_expansion(n, K, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (K + 1, n, n))
    got = RhoSeries(coeffs).matrix_det().coeffs
    ref = permutation_det(coeffs)
    # rounding is relative to the size of the terms, not of their sum
    scale = permutation_det(np.abs(coeffs), signed=False)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * scale)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_jacobi_formula(n):
    # d/drho log det g_rho = tr(g_rho^{-1} g_rho')
    rng = np.random.default_rng(20 + n)
    coeffs = rng.uniform(-0.3, 0.3, (6, n, n))
    coeffs = 0.5 * (coeffs + np.swapaxes(coeffs, -1, -2))
    coeffs[0] += np.eye(n)
    lhs = _derivative(_scalar_log(RhoSeries(coeffs).matrix_det().coeffs))
    rhs = np.trace(_cauchy(_matrix_inverse(coeffs), _derivative(coeffs), matmul=True),
                   axis1=-2, axis2=-1)
    assert lhs.shape == rhs.shape == (5,)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_matrix_shaped_coefficients_multiply_as_matrices():
    # the shape (K+1, n, n) makes a matrix series without being told
    rng = np.random.default_rng(30)
    g, h = rng.uniform(-1.0, 1.0, (2, 3, 2, 2))
    got = (RhoSeries(g) * RhoSeries(h)).coeffs
    ref = np.array([sum(g[i] @ h[k - i] for i in range(k + 1)) for k in range(3)])
    assert RhoSeries(g).kind == "matrix"
    assert np.max(np.abs(got - ref)) < 1e-14


@pytest.mark.parametrize("Ka, Kb", [(0, 0), (3, 3), (5, 2), (1, 4)])
def test_cauchy_matches_a_naive_double_loop(Ka, Kb):
    rng = np.random.default_rng(10 * Ka + Kb)
    K = min(Ka, Kb)

    def naive(a, b, product):
        return np.array([sum(product(a[i], b[k - i]) for i in range(k + 1))
                         for k in range(K + 1)])

    sa, sb = rng.standard_normal(Ka + 1), rng.standard_normal(Kb + 1)
    ma, mb = rng.standard_normal((Ka + 1, 3, 3)), rng.standard_normal((Kb + 1, 3, 3))
    cases = [
        (_cauchy(sa, sb), naive(sa, sb, np.multiply)),
        (_cauchy(ma, mb, matmul=True), naive(ma, mb, np.matmul)),
        (_cauchy(ma, mb), naive(ma, mb, np.multiply)),
        (_cauchy(sa[:, None, None], mb), naive(sa, mb, np.multiply)),
        (_cauchy(ma, sb[:, None, None]), naive(ma, sb, np.multiply)),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=0.0, atol=1e-14 * max(1.0, np.abs(want).max()))
    assert np.array_equal((RhoSeries(sa) * RhoSeries(mb)).coeffs, cases[3][0])



@pytest.mark.parametrize("shape", [(3, 4, 2, 2), (3, 2, 3), (3, 4), ()])
def test_series_of_other_shapes_rejected(shape):
    with pytest.raises(DimensionMismatch, match="shape"):
        RhoSeries(np.ones(shape))


@pytest.mark.parametrize("g_shape, f_shape", [
    ((3, 4, 2, 2), (3, 4)),    # a batch of points
    ((3, 2, 2), (3, 4)),
    ((3, 2, 2), (2,)),
    ((3, 2), (3,)),
])
def test_expansion_of_other_shapes_rejected(g_shape, f_shape):
    gcoeffs = np.zeros(g_shape)
    gcoeffs[0] = 1.0
    with pytest.raises(DimensionMismatch, match="gcoeffs"):
        AmbientExpansion(gcoeffs=gcoeffs, fcoeffs=np.ones(f_shape))


@pytest.mark.parametrize("where, value", [
    (("g", (1, 0, 1)), float("nan")),
    (("f", (1,)), float("inf")),
    (("g", (0, 2, 2)), float("-inf")),
    (("f", (0,)), float("nan")),
])
def test_expansion_with_non_finite_coefficients_rejected(where, value):
    gcoeffs = np.zeros((3, 3, 3))
    gcoeffs[0] = np.eye(3)
    fcoeffs = np.array([1.0, 0.5, 0.0])
    (gcoeffs if where[0] == "g" else fcoeffs)[where[1]] = value
    with pytest.raises(DomainError, match="expansion coefficients must be finite"):
        AmbientExpansion(gcoeffs=gcoeffs, fcoeffs=fcoeffs)


def test_antiderivative_geometric():
    lam = 0.25
    # (1 + lam u)^{-2} integrates to rho / (1 + lam rho)
    base = np.array([(-1.0) ** k * (k + 1) * lam**k for k in range(6)])
    expected = np.concatenate([[0.0], [(-lam) ** k for k in range(6)]])
    assert np.allclose(_antiderivative(base), expected, atol=1e-13)


def test_derivative_inverse_of_antiderivative():
    rng = np.random.default_rng(5)
    s = rng.uniform(-1, 1, 6)
    assert np.allclose(_derivative(_antiderivative(s)), s)


series_tail = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=5, max_size=5,
)


@settings(max_examples=40, deadline=None)
@given(series_tail, st.floats(min_value=0.5, max_value=3.0))
def test_inverse_roundtrip_property(tail, head):
    s = np.array([head] + tail)
    prod = _cauchy(s, _scalar_inverse(s))
    prod[0] -= 1.0
    assert np.max(np.abs(prod)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(series_tail, st.floats(min_value=-1.0, max_value=1.0))
def test_exp_log_roundtrip_property(tail, head):
    s = np.array([head] + tail)
    assert np.max(np.abs(_scalar_log(_scalar_exp(s)) - s)) < 1e-11


@settings(max_examples=30, deadline=None)
@given(series_tail, series_tail)
def test_product_derivative_rule_property(a_tail, b_tail):
    a = np.array([1.0] + a_tail)
    b = np.array([1.0] + b_tail)
    lhs = _derivative(_cauchy(a, b))
    rhs = _cauchy(_derivative(a), b) + _cauchy(a, _derivative(b))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_singular_leading_matrix_rejected():
    coeffs = np.zeros((3, 2, 2))
    with pytest.raises(DomainError):
        _matrix_inverse(coeffs)
    with pytest.raises(DomainError):
        _scalar_inverse(np.zeros(4))
    with pytest.raises(DomainError):
        _scalar_log(np.array([-1.0, 0.0]))


# -- volume coefficients ---------------------------------------------------


def test_quasi_einstein_closed_form():
    rng = np.random.default_rng(6)
    g = spd(rng, 3)
    a = lcf_candidate_ambient(g, 0.9, 0.25 * g, 0.5, 2.0, 5)
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
    a = lcf_candidate_ambient(np.eye(2), 1.0, 0.1 * np.eye(2), 0.2, 2.0, 3)
    with pytest.raises(DeterminacyError, match="beyond determinacy order 2"):
        volume_coefficients(a, 2.0)
    with pytest.raises(DeterminacyError):
        l_operator(a, 2.0, 3)
    # within the cap both work
    a2 = lcf_candidate_ambient(np.eye(2), 1.0, 0.1 * np.eye(2), 0.2, 2.0, 2)
    assert len(volume_coefficients(a2, 2.0)) == 2


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, -3.0, -1e-300])
def test_dimensional_parameter_must_be_finite_and_non_negative(m):
    a = lcf_candidate_ambient(np.eye(3), 1.0, 0.25 * np.eye(3), 0.5, 2.0, 3)
    message = "dimensional parameter m must be finite and >= 0"
    for call in (lambda: volume_coefficients(a, m), lambda: l_operator(a, m, 2),
                 lambda: check_determinacy(3, m, 2), lambda: determinacy_cap(3, m),
                 lambda: l_operator_series(a, m)):
        with pytest.raises(DomainError, match=message):
            call()
    # rejected before the expansion's per-m cache: no entry is added
    assert a._by_m == {}
    assert volume_coefficients(a, 0.0)[1] == pytest.approx(3 * 0.25)   # n lam


# -- obstruction tensors -----------------------------------------------------


def test_quasi_einstein_is_flat():
    rng = np.random.default_rng(9)
    g = spd(rng, 3)
    a = lcf_candidate_ambient(g, 0.8, 0.25 * g, 0.5, 2.0, 5)
    assert np.max(np.abs(lambda_one_series(a))) < 1e-13
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
    assert np.max(np.abs(lambda_one_series(a))) < 1e-12
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
    assert np.allclose(lambda_one_series(a)[0], h, atol=1e-13)
    obs = obstruction_tensors(a)
    assert np.allclose(obs.omegas[0], h, atol=1e-13)
    assert np.max(np.abs(obs.omegas[1])) < 1e-13


def test_f_residual_linear_in_corruption():
    rng = np.random.default_rng(12)
    g = spd(rng, 3)
    P = 0.3 * sym(rng, 3)
    a = lcf_candidate_ambient(g, 1.2, P, 0.4, 2.0, 4)
    eps = 1e-3
    fc = a.fcoeffs.copy()
    fc[2] += eps / 2.0   # Taylor slot stores f''/2
    corrupted = AmbientExpansion(gcoeffs=a.gcoeffs, fcoeffs=fc)
    assert f_second_residual(corrupted, 2.0) == pytest.approx(eps, rel=1e-9)


def test_order_guards():
    a = lcf_candidate_ambient(np.eye(3), 1.0, 0.2 * np.eye(3), 0.4, 2.0, 1)
    with pytest.raises(OrderError):
        lambda_one_series(a)
    with pytest.raises(OrderError):
        obstruction_tensors(a)
    with pytest.raises(OrderError):
        l_operator(a, 2.0, 5)
    a = lcf_candidate_ambient(np.eye(3), 1.0, 0.2 * np.eye(3), 0.4, 2.0, 3)
    with pytest.raises(DomainError):
        f_second_residual(a, 0.0)


@pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), "2", True, None, 0, 4])
def test_l_operator_order_is_an_integer_in_range(k):
    a = lcf_candidate_ambient(np.eye(3), 1.0, 0.2 * np.eye(3), 0.4, 2.0, 3)
    with pytest.raises(OrderError, match=re.escape(
            f"order k = {k!r} is not an integer in 1..3") + "$"):
        l_operator(a, 2.0, k)
    assert np.array_equal(l_operator(a, 2.0, np.int64(2)), l_operator(a, 2.0, 2))


def curved_expansion(rng, n, K):
    """Random (g_rho, f_rho) to order K: generic, so not conformally flat."""
    gc = np.array([spd(rng, n)] + [0.5 * sym(rng, n) for _ in range(K)])
    fc = rng.uniform(-0.5, 0.5, K + 1)
    fc[0] = rng.uniform(0.5, 2.0)
    return AmbientExpansion(gcoeffs=gc, fcoeffs=fc)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.floats(0.0, 4.0),
       st.integers(0, 2**32 - 1))
def test_jacobi_volume_series_matches_determinant_oracle(n, K, m, seed):
    # log(det g_rho / det g) = int_0^rho tr(g' g^{-1}) against the Laplace
    # determinant and its series log
    a = curved_expansion(np.random.default_rng(seed), n, K)
    det = RhoSeries(a.gcoeffs).matrix_det()
    log_det = _scalar_log((det * (1.0 / det.coeffs[0])).coeffs)
    log_f = _scalar_log((RhoSeries(a.fcoeffs) * (1.0 / a.f)).coeffs)
    ref = _scalar_exp(m * log_f + 0.5 * log_det)
    # the series itself: past the determinacy order, volume_coefficients raises
    got = a._volume(m)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def test_derived_series_computed_once_per_expansion_and_m(monkeypatch):
    # the kernels are counted where the expansion calls them, and so is
    # every series object built: no reader and no verify row builds one
    inverses, volumes, built = [], [], []
    init = RhoSeries.__init__

    def counted_inverse(a):
        inverses.append(a.shape[0] - 1)
        return _matrix_inverse(a)

    def counted_volume(a):   # only the volume series takes an exp
        volumes.append(a.shape[0] - 1)
        return _scalar_exp(a)

    def counted_init(self, coeffs):
        built.append(np.shape(coeffs))
        init(self, coeffs)

    def no_det(self):
        raise AssertionError("the volume path takes no determinant")

    monkeypatch.setattr("wrvc.rho._matrix_inverse", counted_inverse)
    monkeypatch.setattr("wrvc.rho._scalar_exp", counted_volume)
    monkeypatch.setattr(RhoSeries, "__init__", counted_init)
    monkeypatch.setattr(RhoSeries, "matrix_det", no_det)
    K = 5
    a = curved_expansion(np.random.default_rng(30), 4, K)
    for m in (1.3, 2.5, 1.3):
        volume_coefficients(a, m)
        obstruction_tensors(a)
        for k in range(1, K + 1):
            l_operator(a, m, k)
        l_operator_series(a, m)
        lambda_one_series(a)
        f_second_residual(a, m)
    poincare_to_ambient([1.0, 0.0, -0.25, 0.0, 0.25**2 / 4.0])
    assert inverses == [K]
    assert volumes == [K, K]    # one per m: 1.3 and 2.5
    assert built == []
    run_suites(SUITE_NAMES)
    assert built == []


def series_reference(a, m):
    """v_1..v_K, L_1..L_K, Lambda^(1) and the obstructions of an expansion
    from the series kernels and ``RhoSeries`` products, composed afresh on
    the expansion's coefficients in the pipeline's order."""
    def times(x, y):
        return (RhoSeries(x) * RhoSeries(y)).coeffs

    ginv = _matrix_inverse(a.gcoeffs)
    gp = _derivative(a.gcoeffs)
    gp_ginv = times(gp, ginv)
    exponent = (_scalar_log(a.fcoeffs) * m
                + _antiderivative(np.trace(gp_ginv, axis1=1, axis2=2)) * 0.5)
    exponent[0] = 0.0   # both logs of ratios vanish at rho = 0
    volume = _scalar_exp(exponent)
    L = times(volume, _antiderivative(ginv))
    ref = {"v": volume[1:], "L": [-L[k] for k in range(1, a.K + 1)]}
    if a.K >= 2:
        lam = _symmetrize((_derivative(gp) - times(gp_ginv, gp)[: a.K - 1] * 0.5) * 0.5)
        ref["lambda_one"] = lam
        omegas = [lam[0]]
        for _ in range(2, a.K):
            lam = _derivative(lam) - _symmetrize(times(gp_ginv, lam)[: len(lam) - 1])
            omegas.append(lam[0])
        ref["omegas"] = omegas
    return ref


@pytest.mark.parametrize("K", range(1, 7))
@pytest.mark.parametrize("n", range(1, 5))
def test_pipeline_is_bit_identical_to_public_series_operations(n, K):
    rng = np.random.default_rng(100 * n + K)
    for m in (0.7, 1.3, 2.5):
        a = curved_expansion(rng, n, K)
        ref = series_reference(a, m)
        assert np.array_equal(volume_coefficients(a, m).v, ref["v"])
        for k in range(1, K + 1):
            assert np.array_equal(l_operator(a, m, k), ref["L"][k - 1])
        if K >= 2:
            assert np.array_equal(lambda_one_series(a), ref["lambda_one"])
            omegas = obstruction_tensors(a).omegas
            assert len(omegas) == len(ref["omegas"])
            for got, want in zip(omegas, ref["omegas"]):
                assert np.array_equal(got, want)


# every public reader of the cached series, as (a, m) -> array
READERS = [
    lambda a, m: volume_coefficients(a, m).v,
    l_operator_series,
    lambda a, m: lambda_one_series(a),
    lambda a, m: np.array(f_second_residual(a, m)),
    lambda a, m: np.array(obstruction_tensors(a).omegas),
] + [lambda a, m, k=k: l_operator(a, m, k) for k in range(1, 7)]


def test_reused_expansion_matches_fresh_ones_bitwise():
    a = curved_expansion(np.random.default_rng(31), 3, 6)
    for m in (0.7, 2.5, 0.7):
        for reader in READERS[::-1]:
            reused = reader(a, m)
            fresh = reader(AmbientExpansion(gcoeffs=a.gcoeffs, fcoeffs=a.fcoeffs), m)
            assert np.array_equal(reused, fresh)


def test_expansion_and_cached_arrays_are_read_only():
    rng = np.random.default_rng(32)
    gc = curved_expansion(rng, 3, 4).gcoeffs.copy()
    fc = np.array([1.0, 0.3, -0.2, 0.1, 0.05])
    a = AmbientExpansion(gcoeffs=gc, fcoeffs=fc)
    before = volume_coefficients(a, 2.5).v.copy()
    gc[1] += 1.0    # the caller's arrays were copied
    fc[1] += 1.0
    assert np.array_equal(volume_coefficients(a, 2.5).v, before)
    cached = [a.gcoeffs, a.fcoeffs, a.g, volume_coefficients(a, 2.5).v,
              l_operator_series(a, 2.5), lambda_one_series(a)]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    with pytest.raises(AttributeError):
        a.gcoeffs = gc
    # the series readers return the cached arrays themselves, and what is
    # computed per call stays the caller's to change
    assert l_operator_series(a, 2.5) is l_operator_series(a, 2.5)
    assert lambda_one_series(a) is lambda_one_series(a)
    L = l_operator(a, 2.5, 1)
    L[0, 0] = 1.0
    obstruction_tensors(a).omegas[0][0, 0] = 1.0
    assert np.array_equal(volume_coefficients(a, 2.5).v, before)
    assert np.array_equal(l_operator_series(a, 2.5)[1], -l_operator(a, 2.5, 1))


# -- L operator ----------------------------------------------------------------


def test_l_operator_closed_form():
    rng = np.random.default_rng(13)
    g = spd(rng, 3)
    lam, m = 0.25, 2.0
    a = lcf_candidate_ambient(g, 0.9, lam * g, 2.0 * lam, 2.0, 5)
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
    a = lcf_candidate_ambient(g, 0.9, lam * g, 2.0 * lam, 2.0, 5)
    S = l_operator_series(a, m)
    ginv = np.linalg.inv(g)
    for k in range(6):
        coeff = math.comb(4, k - 1) * lam ** (k - 1) if k >= 1 else 0.0
        assert np.allclose(S[k], coeff * ginv, atol=1e-12)


# -- substitution and files -----------------------------------------------------


def test_poincare_substitution():
    assert np.allclose(poincare_to_ambient([1.0, 0.0, 1.0]), [1.0, -2.0])
    assert np.allclose(poincare_to_ambient([0.0, 0.0, 0.0, 0.0, 1.0]), [0.0, 0.0, 4.0])


def test_poincare_roundtrip_quasi_einstein_profile():
    lam = 0.25
    # (1 + lam (-r^2/2))^2 as a series in r
    r_coeffs = np.zeros(5)
    r_coeffs[0] = 1.0
    r_coeffs[2] = -lam
    r_coeffs[4] = lam**2 / 4.0
    assert np.allclose(poincare_to_ambient(r_coeffs), [1.0, 2 * lam, lam**2], atol=1e-14)


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


def test_an_asymmetric_metric_coefficient_is_rejected():
    # eigvalsh reads one triangle, so the positive-definiteness check alone
    # would take g_0 = [[1, 0.5], [0, 1]]
    g = np.array([np.eye(2), 0.3 * np.eye(2), 0.1 * np.eye(2)])
    g[0, 0, 1] = 0.5
    with pytest.raises(DomainError, match="^expansion metric coefficients must be symmetric$"):
        AmbientExpansion(gcoeffs=g, fcoeffs=[1.0, 0.2, 0.05])
    # rounding-level asymmetry, as in P g^{-1} P, passes
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.uniform(-1, 1, (4, 4))
        g0 = np.eye(4) + 0.1 * (a + a.T)
        b = rng.uniform(-1, 1, (4, 4))
        lcf_candidate_ambient(g0, 1.0, 0.3 * (b + b.T), 0.4, 2.0, 3)


@pytest.mark.parametrize("k", [True, 2.0, "2", 2.5, 0, 4])
def test_volume_coefficient_order_is_an_integer_in_range(k):
    a = lcf_candidate_ambient(np.eye(3), 1.0, 0.2 * np.eye(3), 0.4, 2.0, 3)
    v = volume_coefficients(a, 2.0)
    with pytest.raises(OrderError, match=re.escape(
            f"order k = {k!r} is not an integer in 1..3") + "$"):
        v[k]
    assert v[np.int64(2)] == v[2] == v.v[1]
