import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrvc import fields
from wrvc.errors import DomainError, ModelError
from wrvc.expr import evaluate, parse_expression
from wrvc.fields import (
    AmbientCoordinate,
    Constant,
    Product,
    SphereField,
    Sum,
    coordinate_harmonics,
    degree_two_harmonics,
    random_combination,
)
from wrvc.jets import Jet
from wrvc.models import builtin_model
from wrvc.rho import AmbientExpansion
from wrvc import suites, variational
from wrvc.variational import (
    Chart,
    GridStructure,
    QuadratureGrid,
    c_k_constant,
    delta_vk_identity_check,
    eigenvalue_bound_check,
    first_variation,
    functional_F_k,
    laplace_beltrami_values,
    partition_profile,
    predicted_second_variation_sign,
    project_mean_zero,
    rayleigh_quotient,
    second_variation,
    second_variation_sign_certificate,
    weighted_volume,
)

S3_VOL = 2.0 * math.pi**2
S2_VOL = 4.0 * math.pi


@pytest.fixture(scope="module")
def grid3():
    return QuadratureGrid(3)


@pytest.fixture(scope="module")
def grid2():
    return QuadratureGrid(2)


@pytest.fixture(scope="module")
def qe3():
    return builtin_model("qe_sphere", 3, 2, 1)


# -- fields against the jet oracle ----------------------------------------


def field_as_jets(field, chart, point, order=3):
    """Evaluate a sphere field through the expression/jet machinery."""
    n = len(point)
    env = {
        name: Jet.variable(i, point[i], n, order)
        for i, name in enumerate(("x", "y", "z", "w")[:n])
    }
    r2_text = "+".join(f"{c}^2" for c in ("x", "y", "z", "w")[:n])
    if isinstance(field, AmbientCoordinate) and field.a < field.n:
        text = f"2*{('x', 'y', 'z', 'w')[field.a]}/(1+{r2_text})"
    else:
        text = f"({r2_text}-1)/(1+{r2_text})"
        if chart.sign < 0:
            text = f"-({text})"
    return evaluate(parse_expression(text), env)


@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_harmonic_fields_match_jets(a, sign):
    rng = np.random.default_rng(a)
    chart = Chart(0 if sign > 0 else 1, sign)
    field = AmbientCoordinate(a, 3)
    X = rng.uniform(-1.5, 1.5, (6, 3))
    vals = field.value(chart, X)
    grads = field.grad(chart, X)
    hesses = field.hess(chart, X)
    for idx in range(len(X)):
        jet = field_as_jets(field, chart, X[idx])
        assert vals[idx] == pytest.approx(jet.value, abs=1e-12)
        for i in range(3):
            e = tuple(int(i == t) for t in range(3))
            assert grads[idx, i] == pytest.approx(jet.partial(e), abs=1e-12)
            for j in range(3):
                e2 = tuple(int(i == t) + int(j == t) for t in range(3))
                assert hesses[idx, i, j] == pytest.approx(
                    jet.partial(e2), abs=1e-11
                )


def test_product_field_consistency():
    rng = np.random.default_rng(5)
    chart = Chart(0, 1.0)
    f = Product(AmbientCoordinate(0, 3), AmbientCoordinate(3, 3))
    X = rng.uniform(-1.0, 1.0, (4, 3))
    u = AmbientCoordinate(0, 3)
    v = AmbientCoordinate(3, 3)
    assert np.allclose(f.value(chart, X), u.value(chart, X) * v.value(chart, X))
    # numeric derivative check of the product gradient
    eps = 1e-6
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = eps
        num = (f.value(chart, X + shift) - f.value(chart, X - shift)) / (2 * eps)
        assert np.allclose(f.grad(chart, X)[:, i], num, atol=1e-8)


def test_harmonics_are_eigenfunctions():
    chart = Chart(0, 1.0)
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, (50, 3))
    for field in coordinate_harmonics(3):
        lap = laplace_beltrami_values(field, chart, X)
        assert np.allclose(lap, -3.0 * field.value(chart, X), atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]),
       st.sampled_from([1.0, -1.0]), st.floats(0.1, 4.0))
def test_flat_laplacian_is_hessian_trace(seed, n, sign, spread):
    # the closed-form flat Laplacian against the trace of the (N, n, n)
    # Hessian, per node, relative to the size of the diagonal entries
    rng = np.random.default_rng(seed)
    chart = Chart(0 if sign > 0 else 1, sign)
    field = random_combination(rng, n)
    X = rng.uniform(-spread, spread, (25, n))
    hess = field.hess(chart, X)
    trace = np.trace(hess, axis1=1, axis2=2)
    scale = np.abs(np.diagonal(hess, axis1=1, axis2=2)).sum(axis=1)
    lap = field.laplacian(chart, X)
    assert np.all(np.abs(lap - trace) <= 1e-12 * scale)
    D = fields.node_D(X)
    assert np.array_equal(field.laplacian(chart, X, D), lap)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_laplace_beltrami_eigenvalues(n, sign):
    # Delta xi = -l(l+n-1) xi: l = 1 for coordinates, l = 2 for xi_a xi_b
    chart = Chart(0 if sign > 0 else 1, sign)
    X = np.random.default_rng(n).uniform(-2.0, 2.0, (60, n))
    for field in coordinate_harmonics(n):
        lap = laplace_beltrami_values(field, chart, X)
        assert np.allclose(lap, -n * field.value(chart, X), rtol=1e-12, atol=1e-12)
    for field in degree_two_harmonics(n):
        lap = laplace_beltrami_values(field, chart, X)
        assert np.allclose(lap, -2.0 * (n + 1) * field.value(chart, X),
                           rtol=1e-12, atol=1e-12)


def test_quadrature_paths_never_build_a_hessian(monkeypatch, grid3, qe3):
    def no_hessian(self, chart, X, D=None):
        raise AssertionError(f"{type(self).__name__}.hess called")

    for cls in (SphereField, Constant, AmbientCoordinate, Sum, Product):
        monkeypatch.setattr(cls, "hess", no_hessian)
    trial = random_combination(np.random.default_rng(4), 3)
    assert delta_vk_identity_check(qe3, grid3, 2, trial) <= 1e-6
    assert second_variation(qe3, grid3, 2, trial).path_agreement <= 1e-6
    assert rayleigh_quotient(qe3, grid3, degree_two_harmonics(3)[0]) \
        == pytest.approx(8.0, abs=1e-4)
    assert eigenvalue_bound_check(qe3, grid3).passed


def test_chart_transition_consistency():
    # the same sphere point seen from both charts gives the same field value
    rng = np.random.default_rng(8)
    X = rng.uniform(0.2, 1.5, (10, 3))
    Xb = X / np.sum(X**2, axis=1)[:, None]
    for field in coordinate_harmonics(3):
        va = field.value(Chart(0, 1.0), X)
        vb = field.value(Chart(1, -1.0), Xb)
        assert np.allclose(va, vb, atol=1e-12)


# -- grid construction ------------------------------------------------------


def test_partition_profile_sums_to_one():
    t = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    assert np.allclose(partition_profile(t) + partition_profile(1.0 / t), 1.0,
                       atol=1e-14)


def test_grid_weight_sums(grid3, grid2):
    assert abs(grid3.weight_sum() - S3_VOL) < 1e-6
    assert abs(grid2.weight_sum() - S2_VOL) < 1e-6


def test_grid_refinement_reduces_error():
    errs = [abs(QuadratureGrid(3, resolution=res).weight_sum() - S3_VOL)
            for res in (10, 20)]
    assert errs[0] / errs[1] >= 4.0


def test_grid_guards():
    with pytest.raises(DomainError):
        QuadratureGrid(4)
    with pytest.raises(DomainError):
        QuadratureGrid(3, resolution=2)


# -- weighted volume and functionals ------------------------------------------


def test_weighted_volume_qe_sphere(grid3, qe3):
    assert weighted_volume(qe3, grid3) == pytest.approx(math.pi**2, abs=1e-5)


def test_weighted_volume_unweighted(grid3):
    rs = builtin_model("round_sphere_stereographic", 3)
    assert weighted_volume(rs, grid3) == pytest.approx(S3_VOL, abs=2e-5)
    rs5 = builtin_model("round_sphere_stereographic", 3, m=5.0)
    assert weighted_volume(rs5, grid3) == pytest.approx(S3_VOL, abs=2e-5)


def test_weighted_volume_s2(grid2):
    qe2 = builtin_model("qe_sphere", 2, 3, 1)
    expected = (2.0 * 1.0 / 1.0) ** 1.5 * S2_VOL   # f^m = ((m-1) mu / (n-1))^{m/2}
    assert weighted_volume(qe2, grid2) == pytest.approx(expected, rel=1e-6)


def test_non_sphere_model_rejected(grid3):
    eu = builtin_model("euclidean", 3, m=2.0)
    with pytest.raises(ModelError):
        weighted_volume(eu, grid3)


def test_round_check_covers_every_node(grid3, qe3):
    # g_11 carries a 1e-3 bump at one node and is round to 1e-300 elsewhere
    # (the nearest other node is ~0.11 away)
    node = grid3.points[3501]
    dist2 = "+".join(f"({c}-({float(v)!r}))^2" for c, v in zip("xyz", node))
    g = [row[:] for row in qe3.g_exprs]
    g[0][0] = parse_expression(
        f"4/(1+x^2+y^2+z^2)^2 + 0.001*exp(-1e6*({dist2}))"
    )
    bumped = dataclasses.replace(qe3, name="bumped", g_exprs=g)
    with pytest.raises(ModelError, match="g_11"):
        weighted_volume(bumped, grid3)


def test_one_structure_and_one_unbatched_series_per_k(monkeypatch, qe3):
    structures, series, expansions = [], [], []
    init, scales = GridStructure.__init__, variational._volume_and_l_operator
    post_init = AmbientExpansion.__post_init__

    def counted_init(self, *args):
        structures.append(args)
        init(self, *args)

    def counted_scales(a, m, k):
        series.append((a.gcoeffs.ndim, k))
        return scales(a, m, k)

    def counted_expansion(self):
        post_init(self)
        expansions.append(self.gcoeffs.ndim)

    monkeypatch.setattr(GridStructure, "__init__", counted_init)
    monkeypatch.setattr(variational, "_volume_and_l_operator", counted_scales)
    monkeypatch.setattr(AmbientExpansion, "__post_init__", counted_expansion)
    grid = QuadratureGrid(3, resolution=20)
    for k in (1, 2, 3):
        functional_F_k(qe3, grid, k)
    trial = AmbientCoordinate(0, 3)
    first_variation(qe3, grid, 2, project_mean_zero(qe3, grid, trial))
    second_variation(qe3, grid, 2, trial)
    assert len(structures) == 1
    assert series == [(3, 1), (3, 2), (3, 3)]
    assert expansions == [3, 3, 3]   # no grid function builds a batched one


def test_grid_vk_closed_form(qe3):
    grid = QuadratureGrid(3, resolution=20)
    bound = grid.bind(qe3)
    nm, lam = qe3.n + qe3.m, qe3.lam
    for k in (1, 2, 3, 4):
        exact = math.comb(round(nm), k) * lam**k
        assert abs(bound.vk(k) - exact) <= 1e-15 * exact


def test_grid_vk_needs_positive_density_on_every_node(qe3):
    # positive at the origin, where the series scales are taken, and
    # negative on the nodes with x < -1/2
    tilted = dataclasses.replace(qe3, name="tilted",
                                 f_expr=parse_expression("1 + 2*x"))
    grid = QuadratureGrid(3, resolution=10)
    with pytest.raises(DomainError, match="base density must be positive"):
        functional_F_k(tilted, grid, 1)


def test_bound_grid_freed_without_cycle_collector(qe3):
    grid = QuadratureGrid(3, resolution=10)
    second_variation(qe3, grid, 2, AmbientCoordinate(0, 3))
    ref = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        assert ref() is None
    finally:
        gc.enable()


def test_functional_F_k(grid3, qe3):
    for k, vk in ((1, 1.25), (2, 0.625)):
        assert functional_F_k(qe3, grid3, k) == pytest.approx(
            vk * math.pi**2, abs=1e-4
        )


def test_convergence_order(qe3):
    err = [abs(weighted_volume(qe3, QuadratureGrid(3, resolution=res)) - math.pi**2)
           for res in (10, 20, 40)]
    assert math.log2(err[0] / err[1]) >= 4.0
    assert err[2] < 1e-5


# -- variation formulas --------------------------------------------------------


def test_first_variation_mean_zero(grid3, qe3):
    for field in coordinate_harmonics(3):
        vals = project_mean_zero(qe3, grid3, field)
        assert abs(first_variation(qe3, grid3, 1, vals)) < 1e-8


def test_first_variation_constant(grid3, qe3):
    ones = [np.ones(len(grid3.points))] * 2
    expected = 3.0 * 1.25 * math.pi**2
    assert first_variation(qe3, grid3, 1, ones) == pytest.approx(
        expected, abs=1e-4
    )


def test_first_variation_conformally_invariant_order(grid3):
    # n + m = 2k kills the variation for every trial
    model = builtin_model("qe_sphere", 3, 3, 1)
    ones = [np.ones(len(grid3.points))] * 2
    assert first_variation(model, grid3, 3, ones) == 0.0
    rng = np.random.default_rng(3)
    omega = random_combination(rng, 3)
    assert first_variation(model, grid3, 3, omega) == 0.0


def test_divergence_identity(grid3, qe3):
    trials = coordinate_harmonics(3) + degree_two_harmonics(3)
    for k in (1, 2, 3):
        for field in trials[:4]:
            assert delta_vk_identity_check(qe3, grid3, k, field) <= 1e-6


def test_divergence_identity_constant_field(grid3, qe3):
    assert delta_vk_identity_check(qe3, grid3, 2, Constant(3.0)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_divergence_identity_needs_lam(grid3):
    rs = builtin_model("round_sphere_stereographic", 3, m=2.0)
    with pytest.raises(ModelError):
        delta_vk_identity_check(rs, grid3, 1, AmbientCoordinate(0, 3))


def test_suite_evaluates_each_trial_laplacian_once(monkeypatch):
    fields_seen = []
    original = variational.laplace_beltrami_values

    def counted(field, chart, X):
        fields_seen.append(field)
        return original(field, chart, X)

    monkeypatch.setattr(variational, "laplace_beltrami_values", counted)
    suites.suite_variational(np.random.default_rng(suites.DEFAULT_SEED))
    # ten trials, two charts each, shared by k = 1, 2, 3
    assert len(fields_seen) == 20
    assert len({id(f) for f in fields_seen}) == 10


def test_divergence_identity_memo_cold_and_warm(qe3):
    grid = QuadratureGrid(3, resolution=20)
    trials = coordinate_harmonics(3)[:2] + degree_two_harmonics(3)[:2]
    for field in trials:
        for k in (1, 2, 3):
            cold = delta_vk_identity_check(
                qe3, QuadratureGrid(3, resolution=20), k, field)
            warm = delta_vk_identity_check(qe3, grid, k, field)
            assert warm == cold
    # a field freed right after its check: an entry keyed by id alone would
    # hand its values to the next field allocated at the same address
    first = AmbientCoordinate(0, 3)
    delta_vk_identity_check(qe3, grid, 1, first)
    del first
    second = AmbientCoordinate(2, 3)
    for chart, values in zip(grid.charts, grid._laplace_beltrami(second)):
        assert np.array_equal(values,
                              laplace_beltrami_values(second, chart, grid.points))
    assert delta_vk_identity_check(qe3, grid, 2, second) == \
        delta_vk_identity_check(qe3, QuadratureGrid(3, resolution=20), 2, second)


# -- second variation -----------------------------------------------------------


def test_second_variation_hand_values(grid3, qe3):
    xi = AmbientCoordinate(0, 3)
    rep1 = second_variation(qe3, grid3, 1, xi)
    assert rep1.Q_reduced == pytest.approx(1.5 * math.pi**2 / 4.0, abs=1e-4)
    assert rep1.sign == 1 and rep1.predicted_sign == 1
    rep3 = second_variation(qe3, grid3, 3, xi)
    assert rep3.Q_reduced == pytest.approx(-3.0 * math.pi**2 / 64.0, abs=1e-4)
    assert rep3.sign == -1 and rep3.predicted_sign == -1


def test_second_variation_sign_table(grid3, qe3):
    # (n, m) = (3, 2), positive J: positive for k = 1, 2; negative for 3, 4
    for xi in coordinate_harmonics(3):
        for k, expected in ((1, 1), (2, 1), (3, -1), (4, -1)):
            rep = second_variation(qe3, grid3, k, xi)
            assert rep.sign == expected
            assert rep.predicted_sign == expected
            assert rep.path_agreement <= 1e-6


def test_second_variation_random_trials(grid3, qe3):
    rng = np.random.default_rng(11)
    for _ in range(5):
        omega = random_combination(rng, 3)
        rep = second_variation(qe3, grid3, 2, omega)
        assert rep.path_agreement <= 1e-6
        assert rep.sign == rep.predicted_sign == 1


def test_second_variation_guards(grid3):
    xi = AmbientCoordinate(0, 3)
    eu = builtin_model("euclidean", 3, m=2.0)
    with pytest.raises(ModelError):
        second_variation(eu, grid3, 1, xi)   # lam = 0 and not a sphere model


def test_c_k_invariant():
    for n, m in ((3, 2.0), (3, 3.0), (2, 2.5)):
        for k in range(1, 5):
            expected = (n + m - 2 * k) * math.prod(
                (n + m - 1 - i) / (i + 1) for i in range(k - 1)
            )
            assert c_k_constant(n, m, k) == pytest.approx(expected, rel=1e-12)


def test_sign_predictions_lambda_negative():
    # parity cases below/above the half-dimension for lam < 0:
    # below, positive for odd k and negative for even k; above, flipped
    n, m = 3, 0.0
    lam = -0.5
    assert predicted_second_variation_sign(n, m, 1, lam) == 1   # below, odd
    assert predicted_second_variation_sign(n, m, 2, lam) == 1   # above, even
    for k in (1, 2):
        sign = second_variation_sign_certificate(n, m, k, lam)
        assert sign == predicted_second_variation_sign(n, m, k, lam)
    # a weighted negative-lam structure exercises more parities
    n, m, lam = 3, 4.0, -0.3       # (n+m)/2 = 3.5
    for k, expected in ((1, 1), (2, -1), (3, 1), (4, 1), (5, -1), (6, 1)):
        sign = second_variation_sign_certificate(n, m, k, lam)
        assert sign == expected == predicted_second_variation_sign(n, m, k, lam), k


def test_sign_prediction_guards():
    with pytest.raises(DomainError):
        predicted_second_variation_sign(3, 2.0, 5, 0.25)     # k >= n+m
    with pytest.raises(DomainError):
        predicted_second_variation_sign(2, 2.0, 2, 0.25)     # k = (n+m)/2
    with pytest.raises(DomainError):
        predicted_second_variation_sign(3, 2.0, 1, 0.0)


# -- eigenvalue bound -------------------------------------------------------------


def test_eigenvalue_bound_strict_weighted(grid3, qe3):
    rep = eigenvalue_bound_check(qe3, grid3)
    assert rep.bound == pytest.approx(2.5)
    assert rep.min_quotient == pytest.approx(3.0, abs=1e-4)
    assert rep.strict_expected and rep.passed


def test_eigenvalue_bound_equality_unweighted(grid3):
    rs = builtin_model("round_sphere_stereographic", 3)
    rep = eigenvalue_bound_check(rs, grid3)
    assert rep.bound == pytest.approx(3.0)
    assert rep.min_quotient == pytest.approx(3.0, abs=1e-4)
    assert not rep.strict_expected
    assert rep.passed


def test_degree_two_quotient(grid3, qe3):
    for field in degree_two_harmonics(3)[:3]:
        assert rayleigh_quotient(qe3, grid3, field) == pytest.approx(8.0, abs=1e-4)


def test_eigenvalue_bound_quotients_are_fresh_rayleigh_quotients(qe3):
    expected = [rayleigh_quotient(qe3, QuadratureGrid(3, resolution=20), f)
                for f in coordinate_harmonics(3)]
    rep = eigenvalue_bound_check(qe3, QuadratureGrid(3, resolution=20))
    assert rep.quotients == expected

