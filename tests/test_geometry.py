import numpy as np
import pytest

from wrvc.errors import DimensionMismatch, DomainError, OrderError
from wrvc.geometry import (
    MetricAtPoint,
    christoffel,
    christoffel_coeffs,
    curvature,
    grad_norm2,
    _inverse_coeffs,
    hessian,
    laplacian,
    riemann_coeffs,
    weighted_laplacian,
)
from wrvc.jets import Jet, contract_coeffs, gradient_index, n_coeffs


def coords(point, order=4):
    n = len(point)
    return [Jet.variable(i, point[i], n, order) for i in range(n)]


def euclidean_metric(point, order=4):
    n = len(point)
    G = np.zeros((n, n, n_coeffs(n, order)))
    G[:, :, 0] = np.eye(n)
    return MetricAtPoint(G, point)


def conformal_metric(point, factor_jet):
    """g = factor * delta, factor a positive jet."""
    n = len(point)
    return MetricAtPoint(np.eye(n)[:, :, None] * factor_jet.coeffs, point)


def sphere_metric(point, order=4):
    """Round unit sphere in the stereographic chart: g = 4 (1+|x|^2)^-2 delta."""
    x = coords(point, order)
    r2 = sum(xi * xi for xi in x)
    factor = 4.0 * (1.0 + r2) ** (-2)
    return conformal_metric(point, factor)


def random_metric(rng, n, order=4, scale=0.15):
    """delta plus a small random polynomial symmetric perturbation."""
    x = coords(np.zeros(n) + rng.uniform(-0.2, 0.2, n), order)
    G = np.zeros((n, n, n_coeffs(n, order)))
    for i in range(n):
        for j in range(i, n):
            pert = Jet.constant(0.0, n, order)
            for k in range(n):
                pert = pert + rng.uniform(-scale, scale) * x[k]
                for l in range(k, n):
                    pert = pert + rng.uniform(-scale, scale) * x[k] * x[l]
            base = 1.0 if i == j else 0.0
            G[i, j] = G[j, i] = (pert + base).coeffs
    return MetricAtPoint(G, [xi.value for xi in x])


def test_inverse_coeffs_roundtrip():
    rng = np.random.default_rng(5)
    m = random_metric(rng, 3)
    inv = _inverse_coeffs(m.G, 3, m.order, m.inverse_matrix)
    for i in range(3):
        for j in range(3):
            acc = Jet.constant(0.0, 3, m.order)
            for k in range(3):
                acc = acc + Jet(3, m.order, m.G[i, k]) * Jet(3, m.order, inv[k, j])
            target = 1.0 if i == j else 0.0
            assert abs(acc.value - target) < 1e-12
            assert np.allclose(acc.coeffs[1:], 0.0, atol=1e-12)


def test_round_s6_at_order_7_matches_the_closed_form():
    # a dense multiplication operator for one of these products would take
    # 0.25-0.85 GiB; the whole test peaks at ~125 MiB
    n, order = 6, 7
    point = np.linspace(-0.3, 0.4, n)
    m = sphere_metric(point, order)
    factor = Jet(n, order, m.G[0, 0])
    # Neumann inverse: the closed form delta / factor, and G G^{-1} = I
    inv = _inverse_coeffs(m.G, n, order, m.inverse_matrix)
    assert np.allclose(inv, np.eye(n)[:, :, None] * factor.reciprocal().coeffs,
                       rtol=0.0, atol=1e-13)
    identity = np.zeros_like(m.G)
    identity[:, :, 0] = np.eye(n)
    assert np.allclose(contract_coeffs("...ik,...kj->...ij", m.G, inv, n, order), identity,
                       rtol=0.0, atol=1e-13)
    # g = e^{2u} delta: Gamma^k_ij = delta_ki d_j u + delta_kj d_i u - delta_ij d_k u
    u = (factor * 0.25).log() * 0.5
    du = np.array([u.derivative(j).coeffs for j in range(n)])
    d = np.eye(n)
    exact = (np.einsum("ki,jc->kijc", d, du) + np.einsum("kj,ic->kijc", d, du)
             - np.einsum("ij,kc->kijc", d, du))
    gamma = christoffel_coeffs(m.G, n, order, m.inverse_matrix)
    assert gamma.shape == exact.shape
    assert np.allclose(gamma, exact, rtol=0.0, atol=1e-12)
    # unit sphere: R_abcd = g_ac g_bd - g_ad g_bc, Ric = 5 g, R = 30
    curv = curvature(m)
    g = m.matrix
    riem = np.einsum("ac,bd->abcd", g, g) - np.einsum("ad,bc->abcd", g, g)
    assert np.allclose(curv.riem, riem, rtol=0.0, atol=1e-13)
    assert np.allclose(curv.ric, 5.0 * g, rtol=0.0, atol=1e-13)
    assert abs(curv.scalar - 30.0) < 1e-12


def test_metric_validation():
    x = coords([0.0, 0.0])
    one = Jet.constant(1.0, 2, 4).coeffs
    zero = np.zeros_like(one)
    with pytest.raises(DomainError):   # not symmetric
        MetricAtPoint(np.array([[one, x[0].coeffs], [zero, one]]), [0.0, 0.0])
    with pytest.raises(DomainError):   # not positive definite
        MetricAtPoint(np.array([[-one, zero], [zero, one]]), [0.0, 0.0])


@pytest.mark.parametrize("i, j, c, value", [(0, 0, 0, float("inf")),
                                             (0, 1, 1, float("nan")),
                                             (1, 1, 3, float("-inf"))])
def test_metric_jets_must_be_finite(i, j, c, value):
    # an infinite value term would read R = 0, and a NaN slope would fail
    # the symmetry check with the wrong message
    G = np.zeros((2, 2, n_coeffs(2, 4)))
    G[:, :, 0] = np.eye(2)
    G[i, j, c] = G[j, i, c] = value
    with pytest.raises(DomainError,
                       match=rf"^metric jets must be finite at \({i},{j}\)$"):
        MetricAtPoint(G, [0.0, 0.0])


def test_scalar_jets_are_coefficient_arrays():
    m = euclidean_metric([0.0, 0.0])
    u = Jet.constant(2.5, 2, 4)
    for call in (lambda: hessian(u, m), lambda: grad_norm2(u, m), lambda: m.rescale(u)):
        with pytest.raises(TypeError):
            call()
    assert m.rescale(u.coeffs).matrix.tolist() == [[2.5, 0.0], [0.0, 2.5]]


def test_a_scalar_is_not_a_jet_coefficient_array():
    # a 0-d value has no coefficient axis to read an order from
    m = euclidean_metric([0.0, 0.0])
    with pytest.raises(DimensionMismatch, match=r"^hessian needs a jet coefficient "
                       r"array \(\.\.\., ncoef\), not the scalar 2\.5$"):
        hessian(2.5, m)


@pytest.mark.parametrize("shape", [
    (2, 3, 15),    # not square
    (2, 2),        # no coefficient axis
    (3, 3, 11),    # C(3+k, k) is 1, 4, 10, 20, ...: 11 is no order
    (2, 2, 0),
])
def test_metric_shape_validation(shape):
    G = np.zeros(shape)
    if len(shape) == 3 and shape[2]:
        G[:, :, 0] = np.eye(*shape[:2])
    with pytest.raises(DimensionMismatch):
        MetricAtPoint(G, np.zeros(shape[0]))


@pytest.mark.parametrize("n, order", [(1, 0), (2, 1), (3, 4), (4, 2)])
def test_metric_order_from_coefficient_count(n, order):
    G = np.zeros((n, n, n_coeffs(n, order)))
    G[:, :, 0] = np.eye(n)
    assert MetricAtPoint(G, np.zeros(n)).order == order


# -- Christoffel symbols -------------------------------------------------


def test_christoffel_flat():
    m = euclidean_metric([0.3, -0.2, 0.5])
    gamma = christoffel(m)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert np.allclose(gamma[k, i, j], 0.0)


def test_christoffel_conformal_plane():
    # g = e^{2x} delta on R^2 at the origin
    x = coords([0.0, 0.0])
    m = conformal_metric([0.0, 0.0], (2.0 * x[0]).exp())
    gamma = christoffel(m)
    vals = {
        (0, 0, 0): 1.0,   # Gamma^1_{11}
        (0, 1, 1): -1.0,  # Gamma^1_{22}
        (1, 0, 1): 1.0,   # Gamma^2_{12}
        (1, 1, 0): 1.0,
        (0, 0, 1): 0.0,
        (1, 0, 0): 0.0,
        (1, 1, 1): 0.0,
        (0, 1, 0): 0.0,
    }
    for (k, i, j), expected in vals.items():
        assert gamma[k, i, j, 0] == pytest.approx(expected, abs=1e-13)


def test_christoffel_round_sphere_colatitude():
    # S^2 in (theta, phi): g = diag(1, sin^2 theta), at theta = pi/3
    theta = Jet.variable(0, np.pi / 3, 2, 4)
    one = Jet.constant(1.0, 2, 4).coeffs
    zero = np.zeros_like(one)
    s = theta.sin()
    G = np.array([[one, zero], [zero, (s * s).coeffs]])
    m = MetricAtPoint(G, [np.pi / 3, 0.0])
    gamma = christoffel(m)
    assert gamma[0, 1, 1, 0] == pytest.approx(-np.sqrt(3.0) / 4.0, abs=1e-13)


# -- curvature -----------------------------------------------------------


def test_curvature_flat():
    b = curvature(euclidean_metric([0.1, 0.2, 0.3]))
    assert np.allclose(b.riem, 0.0, atol=1e-13)
    assert np.allclose(b.ric, 0.0, atol=1e-13)
    assert b.scalar == pytest.approx(0.0, abs=1e-13)


def test_curvature_unit_s3():
    m = sphere_metric([0.1, 0.0, 0.0])
    b = curvature(m)
    assert np.allclose(b.ric, 2.0 * m.matrix, atol=1e-10)
    assert b.scalar == pytest.approx(6.0, abs=1e-10)


def test_curvature_hyperbolic_plane():
    y = Jet.variable(1, 1.0, 2, 4)
    m = conformal_metric([0.0, 1.0], y ** (-2))
    assert curvature(m).scalar == pytest.approx(-2.0, abs=1e-11)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_riemann_symmetries_random(seed):
    rng = np.random.default_rng(seed)
    m = random_metric(rng, 3)
    R = curvature(m).riem
    assert np.allclose(R, -R.transpose(1, 0, 2, 3), atol=1e-10)
    assert np.allclose(R, -R.transpose(0, 1, 3, 2), atol=1e-10)
    assert np.allclose(R, R.transpose(2, 3, 0, 1), atol=1e-10)
    bianchi = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
    assert np.allclose(bianchi, 0.0, atol=1e-10)


def test_ricci_contraction_and_symmetry():
    rng = np.random.default_rng(9)
    m = random_metric(rng, 3)
    b = curvature(m)
    ric_from_riem = np.einsum(
        "kl,kilj->ij", m.inverse_matrix, b.riem
    )
    assert np.allclose(b.ric, ric_from_riem, atol=1e-10)
    assert np.allclose(b.ric, b.ric.T, atol=1e-10)
    assert b.scalar == pytest.approx(
        float(np.einsum("ij,ij->", m.inverse_matrix, b.ric)), abs=1e-12
    )


def test_scalar_constant_rescale():
    rng = np.random.default_rng(11)
    for c in (0.5, 2.0):
        m = random_metric(rng, 3)
        scaled = MetricAtPoint(m.G * c**2, m.point)
        assert curvature(scaled).scalar == pytest.approx(
            curvature(m).scalar / c**2, abs=1e-10
        )


def test_insufficient_order():
    m = euclidean_metric([0.0, 0.0], order=1)
    with pytest.raises(OrderError):
        curvature(m)


# -- Riemann jets ------------------------------------------------------------


def test_curvature_is_the_order_0_riemann_jet():
    rng = np.random.default_rng(12)
    single = random_metric(rng, 3)
    stack = MetricAtPoint(np.stack([single.G, random_metric(rng, 3).G]), single.point)
    for m in (single, sphere_metric([0.1, -0.2, 0.3]), stack):
        up = riemann_coeffs(christoffel(m), m.n, 0)
        assert up.shape == m.G.shape[:-3] + (3, 3, 3, 3, 1)
        lowered = np.einsum("...ae,...ebcd->...abcd", m.G[..., 0], up[..., 0])
        assert np.array_equal(lowered, curvature(m).riem)


def test_contracted_second_bianchi_identity_of_the_order_1_ricci_jet():
    # g^{ca} (nabla_c Ric)_{ab} = d_b R / 2 at the point, from the order-1
    # Ricci jet of a random order-3 metric and Gamma at the point
    rng = np.random.default_rng(26)
    n, order = 3, 3
    G = rng.uniform(-0.2, 0.2, (n, n, n_coeffs(n, order)))
    G = G + G.swapaxes(0, 1)
    G[:, :, 0] += 2.0 * np.eye(n)
    G0inv = np.linalg.inv(G[:, :, 0])
    gamma = christoffel_coeffs(G, n, order, G0inv)
    ric = np.einsum("abad...->bd...", riemann_coeffs(gamma, n, 1))
    ginv = _inverse_coeffs(G[:, :, :n_coeffs(n, 1)], n, 1, G0inv)
    scalar = contract_coeffs("ij,ij->", ginv, ric, n, 1)
    grad = gradient_index(n)
    gamma0, ric0 = gamma[..., 0], ric[..., 0]
    # (nabla_c Ric)_{ab} = d_c Ric_ab - Gamma^e_{ca} Ric_eb - Gamma^e_{cb} Ric_ae
    nabla = (np.einsum("abc->cab", ric[..., grad]) - np.einsum("eca,eb->cab", gamma0, ric0)
             - np.einsum("ecb,ae->cab", gamma0, ric0))
    lhs = np.einsum("ca,cab->b", G0inv, nabla)
    rhs = 0.5 * scalar[grad]
    assert np.abs(rhs).max() > 0.1
    assert np.abs(lhs - rhs).max() <= 1e-14


def test_ricci_jet_of_the_rho_scaled_round_s3_is_2g_in_every_slot():
    # (1 + rho)^2 g_{S^3} as order-5 jets in (x, y, z, rho): Gamma and
    # Riemann differentiate along x, y, z only, so rho is a parameter and
    # the constant scale drops out of Ricci: Ric = 2 g_{S^3}, free of rho
    n, dim, order = 3, 4, 5
    x = [Jet.variable(i, c, dim, order) for i, c in enumerate([0.1, -0.2, 0.3, 0.0])]
    sphere = 4.0 * (1.0 + x[0] * x[0] + x[1] * x[1] + x[2] * x[2]) ** (-2)
    G = np.eye(n)[:, :, None] * ((1.0 + x[3]) * (1.0 + x[3]) * sphere).coeffs
    gamma = christoffel_coeffs(G, dim, order, np.linalg.inv(G[:, :, 0]))
    ric = np.einsum("abad...->bd...", riemann_coeffs(gamma, dim, order - 2))
    expected = 2.0 * np.eye(n)[:, :, None] * sphere.coeffs[:n_coeffs(dim, order - 2)]
    assert ric.shape == expected.shape
    assert np.abs(ric - expected).max() <= 1e-12 * np.abs(expected).max()


# -- derivative operators --------------------------------------------------


def test_hessian_flat_quadratic():
    m = euclidean_metric([0.0, 0.0, 0.0])
    x = coords([0.0, 0.0, 0.0])
    u = (sum(xi * xi for xi in x) * 0.5).coeffs
    assert np.allclose(hessian(u, m), np.eye(3), atol=1e-13)
    assert laplacian(u, m) == pytest.approx(3.0)


def test_hessian_constant():
    m = euclidean_metric([0.0, 0.0])
    u = Jet.constant(2.5, 2, 4).coeffs
    assert np.allclose(hessian(u, m), 0.0)
    assert grad_norm2(u, m) == pytest.approx(0.0)


def test_weighted_laplacian_drift():
    # R^3, phi = |x|^2/2, u = x_1 at the point (1,0,0)
    m = euclidean_metric([1.0, 0.0, 0.0])
    x = coords([1.0, 0.0, 0.0])
    phi = sum(xi * xi for xi in x) * 0.5
    u = x[0]
    assert weighted_laplacian(u.coeffs, phi.coeffs, m) == pytest.approx(-1.0)


def test_laplacian_product_rule():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = random_metric(rng, 3)
        n = 3
        cs = coords(m.point, 4)
        def rand_field():
            u = Jet.constant(rng.uniform(-1, 1), n, 4)
            for k in range(n):
                u = u + rng.uniform(-1, 1) * cs[k]
                for l in range(k, n):
                    u = u + rng.uniform(-1, 1) * cs[k] * cs[l]
            return u
        u, v = rand_field(), rand_field()
        lhs = laplacian((u * v).coeffs, m)
        inner = float(
            np.array([u.partial(tuple(int(i == a) for a in range(n)))
                      for i in range(n)])
            @ m.inverse_matrix
            @ np.array([v.partial(tuple(int(i == a) for a in range(n)))
                        for i in range(n)])
        )
        rhs = u.value * laplacian(v.coeffs, m) + v.value * laplacian(u.coeffs, m) + 2 * inner
        assert lhs == pytest.approx(rhs, abs=1e-10)
