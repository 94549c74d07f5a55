import dataclasses

import numpy as np
import pytest

from wrvc import weighted
from wrvc.errors import DomainError
from wrvc.geometry import MetricAtPoint
from wrvc.jets import Jet, n_coeffs
from wrvc.weighted import (
    MetricMeasurePoint,
    check_conformal_laws,
    conformal_rescale,
    generalized_binomial,
    quasi_einstein_residual,
    ric_phi_alternate,
    sigma_k_phi,
    v1_v2_closed_form,
    weighted_invariants,
)


def coords(point, order=4):
    n = len(point)
    return [Jet.variable(i, point[i], n, order) for i in range(n)]


def euclidean_mmp(point, f=None, m=0.0, mu=0.0, order=4):
    n = len(point)
    G = np.zeros((n, n, n_coeffs(n, order)))
    G[:, :, 0] = np.eye(n)
    g = MetricAtPoint(G, point)
    if f is None:
        f = Jet.constant(1.0, n, order)
    return MetricMeasurePoint(g, f, m, mu)


def qe_sphere_mmp(point, n=3, m=2.0, mu=1.0, order=4):
    x = coords(point, order)
    r2 = sum(xi * xi for xi in x)
    factor = 4.0 * (1.0 + r2) ** (-2)
    g = MetricAtPoint(np.eye(n)[:, :, None] * factor.coeffs, point)
    f = Jet.constant(np.sqrt((m - 1) * mu / (n - 1)), n, order)
    return MetricMeasurePoint(g, f, m, mu)


def gaussian_mmp(point, m=2.0, order=4):
    x = coords(point, order)
    f = (sum(xi * xi for xi in x) * (-0.25)).exp()
    return euclidean_mmp(point, f=f, m=m, mu=0.0, order=order)


def random_structure(rng, n=3, m=2.0, mu=0.3, order=4):
    """Small random perturbation of the flat structure with analytic density."""
    x = coords(rng.uniform(-0.2, 0.2, n), order)
    G = np.zeros((n, n, n_coeffs(n, order)))
    for i in range(n):
        for j in range(i, n):
            pert = Jet.constant(0.0, n, order)
            for k in range(n):
                pert = pert + rng.uniform(-0.1, 0.1) * x[k]
                for l in range(k, n):
                    pert = pert + rng.uniform(-0.1, 0.1) * x[k] * x[l]
            G[i, j] = G[j, i] = (pert + (1.0 if i == j else 0.0)).coeffs
    u = Jet.constant(0.0, n, order)
    for k in range(n):
        u = u + rng.uniform(-0.3, 0.3) * x[k]
        for l in range(k, n):
            u = u + rng.uniform(-0.3, 0.3) * x[k] * x[l]
    f = u.exp()
    metric = MetricAtPoint(G, [xi.value for xi in x])
    return MetricMeasurePoint(metric, f, m, mu)


def random_omega(rng, n=3, order=2, scale=0.4):
    size = Jet(n, order).coeffs.shape[0]
    return Jet(n, order, rng.uniform(-scale, scale, size))


# -- construction guards ----------------------------------------------------


def test_rejects_nm_leq_2():
    with pytest.raises(DomainError):
        euclidean_mmp([0.0, 0.0], m=0.0)  # n + m = 2


def test_rejects_nonpositive_density():
    with pytest.raises(DomainError):
        euclidean_mmp([0.0] * 3, f=Jet.constant(-1.0, 3, 4), m=2.0)


def test_m_zero_requires_unit_density():
    x = coords([0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        euclidean_mmp([0.0] * 3, f=(1.0 + x[0]), m=0.0)


# -- invariants on models -----------------------------------------------------


def test_flat_structure_all_zero():
    w = weighted_invariants(euclidean_mmp([0.0] * 3, m=2.0, mu=0.0))
    assert w.r_phi == pytest.approx(0.0, abs=1e-13)
    assert np.allclose(w.ric_phi, 0.0, atol=1e-13)
    assert np.allclose(w.P, 0.0, atol=1e-13)
    assert w.J == w.Y == 0.0
    assert w.F_phi == pytest.approx(0.0, abs=1e-13)


def test_qe_sphere_invariants():
    p = qe_sphere_mmp([0.1, 0.2, 0.0])
    w = weighted_invariants(p)
    g0 = p.g.matrix
    assert np.allclose(w.ric_phi, 2.0 * g0, atol=1e-10)
    assert w.r_phi == pytest.approx(10.0, abs=1e-10)
    assert w.J == pytest.approx(1.25, abs=1e-11)
    assert np.allclose(w.P, 0.25 * g0, atol=1e-11)
    assert w.Y == pytest.approx(0.5, abs=1e-11)


def test_gaussian_density_origin():
    w = weighted_invariants(gaussian_mmp([0.0, 0.0, 0.0]))
    assert np.allclose(w.ric_phi, np.eye(3), atol=1e-12)
    assert w.r_phi == pytest.approx(6.0, abs=1e-12)
    assert w.J == pytest.approx(0.75, abs=1e-13)


def test_invariant_relations_random():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = random_structure(rng)
        w = weighted_invariants(p)
        n, m = w.n, w.m
        g0 = p.g.matrix
        assert 2 * (n + m - 1) * w.J == pytest.approx(w.r_phi, rel=1e-12)
        assert np.allclose((n + m - 2) * w.P, w.ric_phi - w.J * g0, atol=1e-12)
        trP = float(np.trace(np.linalg.solve(g0, w.P)))
        assert w.Y == pytest.approx(w.J - trP, abs=1e-12)


def test_ric_phi_two_routes_agree():
    rng = np.random.default_rng(23)
    for _ in range(8):
        p = random_structure(rng, m=float(rng.uniform(0.5, 4.0)))
        w = weighted_invariants(p)
        alt = ric_phi_alternate(p)
        assert np.allclose(alt, w.ric_phi, atol=1e-10)


def test_ric_phi_alternate_constant_density():
    p = qe_sphere_mmp([0.05, -0.1, 0.2])
    assert np.allclose(ric_phi_alternate(p), weighted_invariants(p).ric_phi,
                       atol=1e-12)


# -- conformal machinery ------------------------------------------------------


def test_rescale_identity():
    p = qe_sphere_mmp([0.1, 0.0, 0.0])
    q = conformal_rescale(p, Jet.constant(0.0, 3, 4))
    assert np.allclose(q.g.matrix, p.g.matrix)
    assert q.f.value == pytest.approx(p.f.value)


def test_rescale_constant_scale():
    p = qe_sphere_mmp([0.1, 0.0, 0.0])
    s = 1.7
    q = conformal_rescale(p, Jet.constant(np.log(s), 3, 4))
    assert np.allclose(q.g.matrix, s**2 * p.g.matrix, atol=1e-12)
    assert q.f.value == pytest.approx(s * p.f.value)


def test_rescale_volume_density_identity():
    # fhat^m sqrt(det ghat) = e^{(n+m) omega} f^m sqrt(det g), as jets
    rng = np.random.default_rng(31)
    p = random_structure(rng, m=2.0)
    omega = random_omega(rng, order=4)
    q = conformal_rescale(p, omega)
    n, m = 3, 2.0
    lhs = q.f ** 2 * q.g.det_jet().sqrt()
    rhs = (omega * (n + m)).exp() * p.f ** 2 * p.g.det_jet().sqrt()
    scale = max(1.0, np.abs(lhs.coeffs).max())
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-11 * scale)


def test_conformal_laws_zero_deformation():
    p = qe_sphere_mmp([0.1, 0.2, 0.0])
    rep = check_conformal_laws(p, Jet.constant(0.0, 3, 2))
    assert max(dataclasses.astuple(rep)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("builder", [
    lambda: qe_sphere_mmp([0.1, 0.2, 0.0]),
    lambda: euclidean_mmp([0.0] * 3, m=2.0, mu=0.0),
    lambda: gaussian_mmp([0.3, -0.1, 0.2]),
])
def test_conformal_laws_random_omega(builder):
    rng = np.random.default_rng(77)
    p = builder()
    for _ in range(10):
        rep = check_conformal_laws(p, random_omega(rng))
        assert max(dataclasses.astuple(rep)) <= 1e-9


def test_conformal_laws_evaluate_the_base_structure_once(monkeypatch):
    p = gaussian_mmp([0.3, -0.1, 0.2])
    rng = np.random.default_rng(78)
    omegas = [random_omega(rng) for _ in range(20)]
    # the same laws on a fresh copy of the structure for every deformation
    expected = [
        dataclasses.astuple(check_conformal_laws(gaussian_mmp([0.3, -0.1, 0.2]), w))
        for w in omegas
    ]
    metrics, logs = [], []
    curvature, log = weighted.curvature, Jet.log

    def counted_curvature(metric):
        metrics.append(metric)
        return curvature(metric)

    def counted_log(self):
        logs.append(self)
        return log(self)

    monkeypatch.setattr(weighted, "curvature", counted_curvature)
    monkeypatch.setattr(Jet, "log", counted_log)
    got = [
        dataclasses.astuple(check_conformal_laws(p, w))
        for w in omegas
    ]
    assert got == expected
    assert sum(metric is p.g for metric in metrics) == 1
    assert len(metrics) == 21   # plus one per rescaled structure
    assert sum(jet is p.f for jet in logs) == 1
    assert p.phi() is p.phi()
    assert weighted_invariants(p) is weighted_invariants(p)


# -- sigma_k ------------------------------------------------------------------


def test_sigma_k_basics():
    g = np.eye(3)
    P = 0.25 * np.eye(3)
    assert sigma_k_phi(0.5, P, g, 2.0, 0) == 1.0
    assert sigma_k_phi(0.5, P, g, 2.0, 1) == pytest.approx(1.25)
    assert sigma_k_phi(0.5, P, g, 2.0, 2) == pytest.approx(0.625)


def test_sigma_k_matches_multiset_for_integer_m():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        g = np.eye(3) + 0.2 * _sym(rng, 3)
        P = 0.5 * _sym(rng, 3)
        Y = rng.uniform(-1, 1)
        eigs = np.linalg.eigvals(np.linalg.solve(g, P)).real
        for k in range(0, 5):
            multiset = list(eigs) + [Y / m] * m
            # prod (t - v) = sum_k (-1)^k e_k t^(len - k)
            expected = (-1) ** k * np.poly(multiset)[k]
            assert sigma_k_phi(Y, P, g, float(m), k) == pytest.approx(
                expected, abs=1e-12 * max(1, abs(expected))
            )


def test_sigma_k_vandermonde_collapse():
    rng = np.random.default_rng(8)
    import math
    for m in (1.0, 2.0, 3.0, 2.5):
        n = 3
        lam = rng.uniform(-0.5, 0.5)
        g = np.eye(n) + 0.1 * _sym(rng, n)
        P = lam * g
        Y = m * lam
        for k in range(0, 5):
            binom = 1.0
            for i in range(k):
                binom *= (n + m - i) / (i + 1)
            assert sigma_k_phi(Y, P, g, m, k) == pytest.approx(
                binom * lam**k, abs=1e-12
            )


def test_sigma_k_m_zero():
    rng = np.random.default_rng(2)
    g = np.eye(3) + 0.1 * _sym(rng, 3)
    P = 0.4 * _sym(rng, 3)
    from wrvc.weighted import elementary_symmetric_matrix
    A = np.linalg.solve(g, P)
    for k in range(4):
        assert sigma_k_phi(0.0, P, g, 0.0, k) == pytest.approx(
            elementary_symmetric_matrix(A, k)
        )


def test_generalized_binomial():
    import math
    assert generalized_binomial(5.0, 2) == pytest.approx(math.comb(5, 2))
    assert generalized_binomial(2.5, 2) == pytest.approx(2.5 * 1.5 / 2)
    assert generalized_binomial(2.0, 3) == pytest.approx(0.0)


def _sym(rng, n):
    a = rng.uniform(-1, 1, (n, n))
    return 0.5 * (a + a.T)


# -- v1/v2 and quasi-Einstein -------------------------------------------------


def test_v1_v2_on_model():
    p = qe_sphere_mmp([0.1, 0.2, 0.0])
    w = weighted_invariants(p)
    v1, v2 = v1_v2_closed_form(w.J, w.P, w.Y, p.g.matrix, w.m)
    assert v1 == pytest.approx(1.25, abs=1e-11)
    assert v2 == pytest.approx(0.625, abs=1e-11)


def test_v1_v2_flat():
    w = weighted_invariants(euclidean_mmp([0.0] * 3, m=2.0))
    assert v1_v2_closed_form(w.J, w.P, w.Y, np.eye(3), w.m) == pytest.approx((0.0, 0.0), abs=1e-13)


def test_v1_v2_equal_sigma_k():
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = random_structure(rng, m=float(rng.uniform(0.5, 3.5)))
        w = weighted_invariants(p)
        g0 = p.g.matrix
        v1, v2 = v1_v2_closed_form(w.J, w.P, w.Y, g0, w.m)
        assert v1 == pytest.approx(sigma_k_phi(w.Y, w.P, g0, w.m, 1), abs=1e-11)
        assert v2 == pytest.approx(sigma_k_phi(w.Y, w.P, g0, w.m, 2), abs=1e-11)


def test_quasi_einstein_residual_cases():
    p = qe_sphere_mmp([0.1, 0.2, 0.0])
    lam, res = quasi_einstein_residual(weighted_invariants(p), p.g.matrix, 3, 2.0)
    assert lam == pytest.approx(0.25, abs=1e-11)
    assert res <= 1e-10

    flat = euclidean_mmp([0.0] * 3, m=2.0)
    lam, res = quasi_einstein_residual(weighted_invariants(flat), np.eye(3), 3, 2.0)
    assert lam == 0.0 and res == pytest.approx(0.0, abs=1e-13)

    # wrong constant density breaks the quasi-Einstein balance
    wrong = qe_sphere_mmp([0.1, 0.2, 0.0])
    wrong = MetricMeasurePoint(wrong.g, Jet.constant(1.0, 3, 4), 2.0, 1.0)
    _, res = quasi_einstein_residual(weighted_invariants(wrong), wrong.g.matrix,
                                     3, 2.0)
    assert res > 0.01
