import dataclasses

import numpy as np
import pytest

from wrvc import weighted
from wrvc.errors import DimensionMismatch, DomainError
from wrvc.expr import parse_expression as parse
from wrvc.geometry import MetricAtPoint
from wrvc.jets import Jet, n_coeffs
from wrvc.models import ModelSpec
from wrvc.suites import _conformal_models, _random_omega
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


@pytest.mark.parametrize("m, mu", [(float("nan"), 0.0), (float("inf"), 0.0),
                                   (2.0, float("inf")), (2.0, float("nan")),
                                   (2.0, float("-inf"))])
def test_rejects_non_finite_parameters(m, mu):
    # each density sign would otherwise slip past one of the comparison guards
    for f in (Jet.constant(-1.0, 3, 4), Jet.constant(1.0, 3, 4)):
        with pytest.raises(DomainError, match="must be finite"):
            euclidean_mmp([0.0] * 3, f=f, m=m, mu=mu)


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


@pytest.mark.parametrize("n, J", [(5, 11 / 6), (6, 16 / 7)])
def test_round_sphere_J_beyond_model_dimensions(n, J):
    # unit S^n with f = 1: J = (n(n-1) + m(m-1) mu) / (2(n+m-1)), m = 2, mu = 1
    point = np.linspace(0.05, 0.3, n)
    g = qe_sphere_mmp(point, n=n, order=2).g
    w = weighted_invariants(MetricMeasurePoint(g, Jet.constant(1.0, n, 2), 2.0, 1.0))
    assert w.J == pytest.approx(J, rel=1e-12, abs=0.0)
    # Ric_phi = (n-1) g, so P = (n - 1 - J) g / (n + m - 2)
    assert np.allclose(w.P, (n - 1 - J) / n * g.matrix, rtol=0.0, atol=1e-12)


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
    [rep] = check_conformal_laws(p, [Jet.constant(0.0, 3, 2)])
    assert max(dataclasses.astuple(rep)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("builder", [
    lambda: qe_sphere_mmp([0.1, 0.2, 0.0]),
    lambda: euclidean_mmp([0.0] * 3, m=2.0, mu=0.0),
    lambda: gaussian_mmp([0.3, -0.1, 0.2]),
])
def test_conformal_laws_random_omega(builder):
    rng = np.random.default_rng(77)
    p = builder()
    for rep in check_conformal_laws(p, [random_omega(rng) for _ in range(10)]):
        assert max(dataclasses.astuple(rep)) <= 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_conformal_laws_hold_unweighted(n):
    # at m = 0 the density stays 1 under rescaling and phi is the zero jet:
    # these are the classical laws for J, P and Y
    rng = np.random.default_rng(79 + n)
    for _ in range(5):
        g = random_structure(rng, n=n).g
        p = MetricMeasurePoint(g, Jet.constant(1.0, n, 4), 0.0)
        omega = random_omega(rng, n=n)
        assert conformal_rescale(p, omega).f is p.f
        [rep] = check_conformal_laws(p, [omega])
        assert max(dataclasses.astuple(rep)) <= 1e-12
    assert not p.phi().any()


def test_conformal_laws_evaluate_the_base_structure_once(monkeypatch):
    p = gaussian_mmp([0.3, -0.1, 0.2])
    rng = np.random.default_rng(78)
    omegas = [random_omega(rng) for _ in range(20)]
    # each deformation checked alone, on a fresh copy of the structure
    expected = [
        dataclasses.astuple(check_conformal_laws(gaussian_mmp([0.3, -0.1, 0.2]), [w])[0])
        for w in omegas
    ]
    metrics = []
    curvature = weighted.curvature

    def counted_curvature(metric):
        metrics.append(metric)
        return curvature(metric)

    monkeypatch.setattr(weighted, "curvature", counted_curvature)
    got = [dataclasses.astuple(rep) for rep in check_conformal_laws(p, omegas)]
    assert got == expected
    # the base structure once, then the 20 rescaled structures as one stack
    assert metrics[0] is p.g
    assert [metric.G.shape[:-3] for metric in metrics] == [(), (20,)]
    # a second check evaluates the base structure again, then its stack,
    # and reports the first call's floats bit for bit
    again = [dataclasses.astuple(rep) for rep in check_conformal_laws(p, omegas[:3])]
    assert [metric.G.shape[:-3] for metric in metrics[2:]] == [(), (3,)]
    assert _bits(again) == _bits(got[:3])
    # phi is read at order 2, from the density's 2-jet; every evaluation of
    # phi and of the invariants gives the same bits
    assert p.phi().tobytes() == p.phi().tobytes()
    assert p.phi().shape == (n_coeffs(3, 2),)
    assert _bits(dataclasses.astuple(weighted_invariants(p))) == _bits(
        dataclasses.astuple(weighted_invariants(p)))


def _bits(values):
    """Each value's bytes (floats and arrays), in order, nested as given."""
    if isinstance(values, (list, tuple)):
        return [_bits(v) for v in values]
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("label", [label for label, _ in _conformal_models()])
def test_conformal_laws_of_a_stack_equal_each_deformation_alone(label):
    # the verify suite's models and draws: the stacked pass is that suite's
    # check, and each of its reports is bit for bit the one-deformation check
    p = dict(_conformal_models())[label]
    rng = np.random.default_rng(20240601)
    omegas = [_random_omega(rng) for _ in range(20)]
    stacked = check_conformal_laws(p, omegas)
    alone = [check_conformal_laws(p, [w])[0] for w in omegas]
    assert [dataclasses.astuple(r) for r in stacked] == [dataclasses.astuple(r) for r in alone]
    assert max(max(dataclasses.astuple(r)) for r in stacked) <= 1e-9


def test_conformal_laws_need_deformations_of_one_order():
    p = qe_sphere_mmp([0.1, 0.2, 0.0])
    with pytest.raises(DimensionMismatch):
        check_conformal_laws(p, [Jet.constant(0.0, 3, 2), Jet.constant(0.0, 3, 3)])
    with pytest.raises(DimensionMismatch):
        check_conformal_laws(p, [])


def _stack(structures):
    """One stacked structure from single structures of one (n, m, mu)."""
    first = structures[0]
    g = MetricAtPoint(np.stack([q.g.G for q in structures]), first.g.point)
    f = np.stack([q.f.coeffs for q in structures])
    return MetricMeasurePoint(g, f, first.m, first.mu)


@pytest.mark.parametrize("n, m", [(3, 2.0), (3, 0.0), (4, 1.5), (4, 0.0), (2, 0.7)])
def test_weighted_invariants_of_a_stack_equal_each_structure_alone(n, m):
    rng = np.random.default_rng(int(10 * n + 3 * m))
    structures = [random_structure(rng, n=n, m=m or 2.0) for _ in range(7)]
    if m == 0:
        structures = [MetricMeasurePoint(q.g, Jet.constant(1.0, n, 4), 0.0, q.mu)
                      for q in structures]
    w = weighted_invariants(_stack(structures))
    assert w.P.shape == (7, n, n) and w.J.shape == (7,)
    for b, q in enumerate(structures):
        alone = weighted_invariants(q)
        for field in ("ric_phi", "r_phi", "P", "J", "Y", "F_phi"):
            assert np.array_equal(getattr(w, field)[b], getattr(alone, field)), field


def test_conformal_rescale_of_a_stack_equals_each_rescale_alone():
    rng = np.random.default_rng(5)
    p = random_structure(rng, m=1.3)
    sigmas = [random_omega(rng, order=3) for _ in range(4)]
    q = conformal_rescale(p, np.stack([s.coeffs for s in sigmas]))
    for b, s in enumerate(sigmas):
        alone = conformal_rescale(p, s)
        assert np.array_equal(q.g.G[b], alone.g.G)
        assert np.array_equal(q.f[b], alone.f.coeffs)
    # m = 0: the density stays the one unit jet, shared by the stack
    p0 = MetricMeasurePoint(p.g, Jet.constant(1.0, 3, 4), 0.0)
    assert conformal_rescale(p0, np.stack([s.coeffs for s in sigmas])).f is p0.f


def _failing_stack(fault, b):
    rng = np.random.default_rng(11)
    structures = [random_structure(rng) for _ in range(4)]
    G = np.stack([q.g.G for q in structures])
    f = np.stack([q.f.coeffs for q in structures])
    if fault == "symmetry":
        G[b, 0, 1, 3] += 1e-6
    elif fault == "definite":
        G[b, :, :, 0] = -np.eye(3)
    else:
        f[b, 0] = -0.5
    return MetricMeasurePoint(MetricAtPoint(G, structures[0].g.point), f, 2.0, 0.3)


@pytest.mark.parametrize("fault, message", [
    ("symmetry", "metric jets not symmetric at (0,1) in structure 2 of the stack"),
    ("definite", "constant-term metric is not positive definite in structure 2 of the stack"),
    ("density", "density must be positive, got f = -0.5 in structure 2 of the stack"),
])
def test_a_failing_structure_is_named_by_its_index_in_the_stack(fault, message):
    with pytest.raises(DomainError) as info:
        _failing_stack(fault, 2)
    assert str(info.value) == message


def test_m_zero_stack_names_the_density_that_is_not_one():
    rng = np.random.default_rng(12)
    g = MetricAtPoint(np.stack([random_structure(rng).g.G for _ in range(3)]), [0.0] * 3)
    f = np.zeros((3, n_coeffs(3, 4)))
    f[:, 0] = 1.0
    f[1, 2] = 0.1
    with pytest.raises(DomainError, match="identically 1 in structure 1 of the stack"):
        MetricMeasurePoint(g, f, 0.0)


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


# a curved base: (g, f) with every first and second derivative nonzero
_BASE_METRIC = {(0, 0): "1+0.2*x^2+0.1*y-0.05*y*{z}", (1, 1): "exp(0.3*x-0.1*y^2)",
                (0, 1): "0.1*x*y+0.05", (2, 2): "1+0.1*z^2+0.2*x*z"}
_BASE_DENSITY = "1.3+0.2*x-0.1*y+0.05*x*y+0.1*{z}^2"


@pytest.mark.parametrize("n, m, mu", [(2, 2, 0.7), (2, 2, -0.6), (3, 1, 0.5),
                                      (2, 1, -0.4)])
def test_weighted_invariants_are_the_warped_product_curvature_at_rho_0(n, m, mu):
    # for integer m, (g, f, m, mu) is the warped product g + f^2 h_mu with
    # h_mu = (1 + mu|y|^2/4)^-2 delta, the m-dimensional space form of
    # curvature mu: at y = 0 its J is the weighted J, its P has the x-block
    # P and the fibre block (Y/m) f^2 delta, and no mixed block
    names = ("x", "y", "z", "w")
    z = "z" if n == 3 else "0"
    text = {key: v.format(z=z) for key, v in _BASE_METRIC.items() if max(key) < n}
    g = [[parse(text.get((min(i, j), max(i, j)), "0")) for j in range(n)] for i in range(n)]
    f = _BASE_DENSITY.format(z=z)
    point = np.array([0.1, -0.2, 0.15][:n])
    small = ModelSpec(name="base", n=n, m=float(m), mu=mu, coords=names[:n], g_exprs=g,
                      f_expr=parse(f))
    fibre = parse(f"({f})^2/(1+{mu!r}*({'+'.join(f'{y}^2' for y in names[n:n + m])})/4)^2")
    G = [[g[i][j] if i < n and j < n else fibre if i == j else parse("0")
          for j in range(n + m)] for i in range(n + m)]
    total = ModelSpec(name="warped", n=n + m, m=0.0, mu=0.0, coords=names[:n + m],
                      g_exprs=G, f_expr=parse("1"))
    w = weighted_invariants(small.structure_at(point, 2))
    W = weighted_invariants(total.structure_at(np.r_[point, np.zeros(m)], 2))
    f0 = small.structure_at(point, 0).f.value
    assert abs(W.J - w.J) <= 1e-14
    assert np.max(np.abs(W.P[:n, :n] - w.P)) <= 1e-14
    assert np.max(np.abs(W.P[n:, n:] - w.Y / m * f0**2 * np.eye(m))) <= 1e-14
    assert np.max(np.abs(W.P[:n, n:])) == 0.0
