import dataclasses
import gc
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import given, settings
from hypothesis import strategies as st

from wrvc.errors import DeterminacyError, DomainError, ModelError
from wrvc.expr import evaluate, parse_expression
from wrvc.fields import (
    AmbientCoordinate,
    ChartTable,
    Constant,
    Product,
    SphereField,
    Sum,
    coordinate_harmonics,
    degree_two_harmonics,
    random_combination,
)
from wrvc.jets import Jet
from wrvc.models import ModelSpec, builtin_model, load_model_file
from wrvc.rho import AmbientExpansion
from wrvc.weighted import weighted_invariants
from wrvc import rho, suites, variational
from wrvc.variational import (
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


def field_as_jets(field, sign, point, order=3):
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
        if sign < 0:
            text = f"-({text})"
    return evaluate(parse_expression(text), env)


@pytest.mark.parametrize("a", [0, 1, 2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_harmonic_fields_match_jets(a, sign):
    rng = np.random.default_rng(a)
    field = AmbientCoordinate(a, 3)
    X = rng.uniform(-1.5, 1.5, (6, 3))
    table = ChartTable(X)
    chart = (1.0, -1.0).index(sign)
    vals = field.value(table)[chart]
    grads = field.grad(table)[:, chart]
    hesses = field.hess(table)[:, :, chart]
    for idx in range(len(X)):
        jet = field_as_jets(field, sign, X[idx])
        assert vals[idx] == pytest.approx(jet.value, abs=1e-12)
        for i in range(3):
            e = tuple(int(i == t) for t in range(3))
            assert grads[i, idx] == pytest.approx(jet.partial(e), abs=1e-12)
            for j in range(3):
                e2 = tuple(int(i == t) + int(j == t) for t in range(3))
                assert hesses[i, j, idx] == pytest.approx(
                    jet.partial(e2), abs=1e-11
                )


def test_product_field_consistency():
    rng = np.random.default_rng(5)
    f = Product(AmbientCoordinate(0, 3), AmbientCoordinate(3, 3))
    X = rng.uniform(-1.0, 1.0, (4, 3))
    table = ChartTable(X)
    u = AmbientCoordinate(0, 3)
    v = AmbientCoordinate(3, 3)
    assert np.allclose(f.value(table), u.value(table) * v.value(table))
    # numeric derivative check of the product gradient, on both charts
    eps = 1e-6

    def value_at(Y):
        return f.value(ChartTable(Y))

    for i in range(3):
        shift = np.zeros(3)
        shift[i] = eps
        num = (value_at(X + shift) - value_at(X - shift)) / (2 * eps)
        assert np.allclose(f.grad(table)[i], num, atol=1e-8)


def test_harmonics_are_eigenfunctions():
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, (50, 3))
    table = ChartTable(X)
    for field in coordinate_harmonics(3):
        lap = laplace_beltrami_values(field, table)
        assert np.allclose(lap, -3.0 * field.value(table), atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.floats(0.01, 10.0))
def test_ambient_form_matches_the_chart_calculus_oracle(seed, n, spread):
    # Laplace-Beltrami values and gradient norms from the ambient form against
    # (D^2/4)(tr hess - 2(n-2) x.grad/D) and (D^2/4)|grad|^2 of the chart
    # derivatives, per chart and node, relative to the size of the terms
    rng = np.random.default_rng(seed)
    field = random_combination(rng, n)
    X = rng.uniform(-spread, spread, (25, n))
    table = ChartTable(X)
    D = table.D
    hess_diag = np.diagonal(field.hess(table), axis1=0, axis2=1)
    grad = field.grad(table)
    radial = np.einsum("ik,ijk->jk", table.XT, grad)
    oracle_lb = (D**2 / 4.0) * (hess_diag.sum(axis=-1) - 2.0 * (n - 2) * radial / D)
    oracle_scale = (D**2 / 4.0) * (np.abs(hess_diag).sum(axis=-1)
                                   + 2.0 * (n - 2) * np.abs(radial) / D)
    oracle_grad2 = (D**2 / 4.0) * np.einsum("ijk,ijk->jk", grad, grad)

    # the form's pieces as the energy reads them: |grad u|_g^2 = |w|^2 - (xi.w)^2
    # with xi.w = b.xi + 2 xi^T C xi
    trace, *parts = variational._ambient_form(field, table)
    bxi, xCx, w2 = (part.reshape(2, 25) for part in parts)
    form_scale = 2.0 * np.abs(trace) + n * np.abs(bxi) + 2.0 * (n + 1) * np.abs(xCx)
    lb = laplace_beltrami_values(field, table)
    assert lb.shape == (2, 25)
    assert np.all(np.abs(lb - oracle_lb) <= 1e-12 * (form_scale + oracle_scale))
    grad2 = w2 - (bxi + 2.0 * xCx) ** 2
    assert np.all(np.abs(grad2 - oracle_grad2) <= 1e-12 * w2)
    # the form's value is the tree's value
    c = field.coefficients(n)[0]
    assert np.allclose(c + bxi + xCx, field.value(table), rtol=0.0, atol=1e-13)
    # per node: the table of a sub-array of nodes gives the same entries
    assert np.array_equal(laplace_beltrami_values(field, ChartTable(X[::3])),
                          lb[:, ::3])


@pytest.mark.parametrize("n", [2, 3])
def test_coefficients_of_the_trial_classes(n):
    eye = np.eye(n + 1)
    c, b, C = Constant(2.5).coefficients(n)
    assert c == 2.5 and not b.any() and not C.any() and C.shape == (n + 1, n + 1)
    for a in range(n + 1):
        c, b, C = AmbientCoordinate(a, n).coefficients(n)
        assert c == 0.0 and np.array_equal(b, eye[a]) and not C.any()
    for a in range(n + 1):
        for d in range(n + 1):
            c, b, C = Product(AmbientCoordinate(a, n),
                              AmbientCoordinate(d, n)).coefficients(n)
            expected = 0.5 * (np.outer(eye[a], eye[d]) + np.outer(eye[d], eye[a]))
            assert c == 0.0 and not b.any() and np.array_equal(C, expected)
    # (2 + xi_0)(3 xi_1 - 1) = -2 + 6 xi_1 - xi_0 + 3 xi_0 xi_1
    left = Sum([Constant(2.0), AmbientCoordinate(0, n)], [1.0, 1.0])
    right = Sum([AmbientCoordinate(1, n), Constant(1.0)], [3.0, -1.0])
    c, b, C = Product(left, right).coefficients(n)
    assert c == -2.0
    assert np.array_equal(b, 6.0 * eye[1] - eye[0])
    assert np.array_equal(C, 1.5 * (np.outer(eye[0], eye[1]) + np.outer(eye[1], eye[0])))
    _, _, C = random_combination(np.random.default_rng(n), n).coefficients(n)
    assert np.array_equal(C, C.T)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_laplace_beltrami_eigenvalues(n, sign):
    # Delta xi = -l(l+n-1) xi: l = 1 for coordinates, l = 2 for xi_a xi_b
    X = np.random.default_rng(n).uniform(-2.0, 2.0, (60, n))
    table = ChartTable(X)
    chart = (1.0, -1.0).index(sign)
    for field in coordinate_harmonics(n):
        lap = laplace_beltrami_values(field, table)[chart]
        assert np.allclose(lap, -n * field.value(table)[chart],
                           rtol=1e-12, atol=1e-12)
    for field in degree_two_harmonics(n):
        lap = laplace_beltrami_values(field, table)[chart]
        assert np.allclose(lap, -2.0 * (n + 1) * field.value(table)[chart],
                           rtol=1e-12, atol=1e-12)


def test_quadrature_paths_never_read_chart_derivatives(monkeypatch, qe3):
    # neither grad nor hess runs, and no table builds the flat gradients
    def no_derivative(self, table):
        raise AssertionError(f"{type(self).__name__} chart derivative called")

    def no_dxi(self):
        raise AssertionError("ChartTable.dxi built")

    for cls in (SphereField, Constant, AmbientCoordinate, Sum, Product):
        monkeypatch.setattr(cls, "grad", no_derivative)
        monkeypatch.setattr(cls, "hess", no_derivative)
    monkeypatch.setattr(ChartTable, "dxi", property(no_dxi))
    grid = QuadratureGrid(3)
    trial = random_combination(np.random.default_rng(4), 3)
    assert abs(first_variation(qe3, grid, 2, project_mean_zero(qe3, grid, trial))) <= 1e-8
    assert delta_vk_identity_check(
        qe3, grid, 2, laplace_beltrami_values(trial, grid.table)) <= 1e-6
    assert second_variation(qe3, grid, 2, trial).path_agreement <= 1e-6
    assert rayleigh_quotient(qe3, grid, degree_two_harmonics(3)[0]) \
        == pytest.approx(8.0, abs=1e-4)
    assert eigenvalue_bound_check(qe3, grid).passed
    assert all(check.passed for check in suites.suite_variational(
        np.random.default_rng(suites.DEFAULT_SEED)))


def test_chart_table_builds_dxi_on_first_use():
    X = np.random.default_rng(9).uniform(-2.0, 2.0, (30, 3))
    table = ChartTable(X)
    assert "dxi" not in vars(table)
    AmbientCoordinate(1, 3).hess(table)
    AmbientCoordinate(3, 3).value(table)
    assert "dxi" not in vars(table)
    grad = AmbientCoordinate(1, 3).grad(table)
    dxi = vars(table)["dxi"]
    assert grad.base is dxi and not dxi.flags.writeable
    assert table.dxi is dxi and dxi.shape == (4, 3, 2, 30)


@pytest.mark.parametrize("n", [2, 3])
def test_degree_three_product_raises_on_the_grid_path(n, grid2, grid3, qe3):
    grid, model = {2: (grid2, builtin_model("qe_sphere", 2, 2, 1)),
                   3: (grid3, qe3)}[n]
    cubic = Product(Product(AmbientCoordinate(0, n), AmbientCoordinate(1, n)),
                    Sum([AmbientCoordinate(1, n), Constant(1.0)], [1.0, 2.0]))
    message = ("a Product of degree 3 is not a grid trial: grid trials are "
               "polynomials of degree <= 2 in the ambient coordinates")
    for call in (lambda: cubic.coefficients(n),
                 lambda: laplace_beltrami_values(cubic, grid.table),
                 lambda: rayleigh_quotient(model, grid, cubic),
                 lambda: second_variation(model, grid, 1, cubic)):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()
    # a degree-two factor times a constant stays a grid trial
    scaled = Product(Constant(2.0), degree_two_harmonics(n)[0])
    assert rayleigh_quotient(model, grid, scaled) == pytest.approx(
        2.0 * (n + 1), abs=1e-4)


def test_chart_transition_consistency():
    # the same sphere point seen from both charts gives the same field value
    rng = np.random.default_rng(8)
    X = rng.uniform(0.2, 1.5, (10, 3))
    Xb = X / np.sum(X**2, axis=1)[:, None]
    for field in coordinate_harmonics(3):
        va = field.value(ChartTable(X))[0]
        vb = field.value(ChartTable(Xb))[1]
        assert np.allclose(va, vb, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_chart_two_negates_the_last_row_of_chart_one(n):
    # rows a < n are sign-independent; row n of chart 2 is chart 1's
    # negated, signed zeros included (x = (1, 0, ..) has xi_n = 0)
    X = np.random.default_rng(n).uniform(-2.0, 2.0, (40, n))
    X[0] = np.eye(n)[0]
    table = ChartTable(X)
    assert table.xi[n, 0, 0] == 0.0
    for rows in (table.xi, table.dxi):
        assert np.array_equal(rows[:n, ..., 1, :], rows[:n, ..., 0, :])
        assert np.array_equal(rows[n, ..., 1, :], -rows[n, ..., 0, :])
        assert np.array_equal(np.signbit(rows[n, ..., 1, :]),
                              np.signbit(-rows[n, ..., 0, :]))


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("resolution", [4, 10, 20, 40, 80])
def test_grid_nodes_equal_the_per_node_formula(n, resolution):
    # the radial factors are computed once per radius and repeated over the
    # directions; every node array equals the formula evaluated node by node
    radius = variational._RADIUS
    xs, ws = leggauss(resolution)
    r, wr = 0.5 * radius * (xs + 1.0), 0.5 * radius * ws
    l_count = max(6, resolution // 4)
    alpha = 2.0 * math.pi * np.arange(2 * l_count) / (2 * l_count)
    dirs = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
    wdir = np.full(2 * l_count, 2.0 * math.pi / (2 * l_count))
    if n == 3:
        mu, wmu = leggauss(l_count)
        sin_theta = np.sqrt(1.0 - mu**2)
        dirs = np.concatenate([(sin_theta[:, None, None] * dirs).reshape(-1, 2),
                               np.repeat(mu, len(wdir))[:, None]], axis=1)
        wdir = (wmu[:, None] * wdir).ravel()
    X = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    rr = np.repeat(r, len(dirs))
    psi = partition_profile(rr)
    conf = 4.0 / (1.0 + rr**2) ** 2
    weights = (wr[:, None] * wdir[None, :]).ravel() * psi * rr ** (n - 1) \
        * conf ** (n / 2.0)
    keep = psi > 0.0
    grid = QuadratureGrid(n, resolution)
    assert np.array_equal(grid.points, X[keep])
    assert np.array_equal(grid.weights, weights[keep])
    assert np.array_equal(grid.conf, conf[keep])


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


@pytest.mark.parametrize("scale, rejected", [("(1+5e-6)", True), ("(1+1e-12)", False)])
def test_round_check_is_relative_to_conf(grid3, qe3, scale, rejected):
    # each g_ij / conf is compared with delta_ij to 1e-10: a metric off by
    # a relative 5e-6 is not round, one off by a relative 1e-12 is
    g = [row[:] for row in qe3.g_exprs]
    for i in range(3):
        g[i][i] = parse_expression(f"4*{scale}/(1+x^2+y^2+z^2)^2")
    scaled = dataclasses.replace(qe3, name="scaled", g_exprs=g)
    if rejected:
        with pytest.raises(ModelError, match="round stereographic metric"):
            functional_F_k(scaled, grid3, 1)
    else:
        assert functional_F_k(scaled, grid3, 1) == functional_F_k(qe3, grid3, 1)


ROUND3 = "4/(1+x^2+y^2+z^2)^2"


@pytest.mark.parametrize("entries, named", [
    # one distinct component on and off the diagonal: round on it, not off it
    ({(i, j): ROUND3 for i in range(3) for j in range(3)}, "g_12"),
    # the first failure in row-major order, after components that pass
    ({(1, 1): f"1.1*{ROUND3}", (2, 2): f"1.1*{ROUND3}"}, "g_22"),
    ({(1, 2): "0.001", (2, 1): "0.001"}, "g_23"),
], ids=["shared_component", "diagonal", "off_diagonal"])
def test_round_check_names_the_first_failing_component_in_row_major_order(
        grid3, qe3, entries, named):
    g = [row[:] for row in qe3.g_exprs]
    for (i, j), text in entries.items():
        g[i][j] = parse_expression(text)
    model = dataclasses.replace(qe3, name="off", g_exprs=g)
    with pytest.raises(ModelError, match=f"component {named} of 'off' differs"):
        weighted_volume(model, grid3)


def test_round_check_covers_chart_two(tmp_path):
    # round on chart 1's nodes (|x| < 3, where exp(r^2 - 60) < 1e-22), but
    # not at chart 2's nodes, read at X/|X|^2 with r^2 up to ~1e5
    path = tmp_path / "far.cfg"
    path.write_text(
        "[space]\nn = 3\nm = 2\nmu = 1\n\n[metric]\n" + "".join(
            f"g_{i}{i} = 4/(1+x^2+y^2+z^2)^2*(1+exp(x^2+y^2+z^2-60))\n"
            for i in (1, 2, 3))
        + "\n[density]\nf = 0.7071067811865476\n\n[ambient]\nlambda = 0.25\n")
    model = load_model_file(path)
    with pytest.raises((ModelError, DomainError),
                       match=re.escape(f"model {model.name!r}")):
        functional_F_k(model, QuadratureGrid(3), 1)


def test_failing_chart_two_node_named_by_grid_coordinates(tmp_path):
    # exp overflows where |y|^2 > 769.8 in the model's chart, which only
    # chart 2's nodes y = x/|x|^2 reach; the message gives the grid's x
    path = tmp_path / "far.cfg"
    path.write_text(
        "[space]\nn = 3\nm = 2\nmu = 1\n\n[metric]\n" + "".join(
            f"g_{i}{i} = 4/(1+x^2+y^2+z^2)^2*(1+exp(x^2+y^2+z^2-60))\n"
            for i in (1, 2, 3))
        + "\n[density]\nf = 0.7071067811865476\n\n[ambient]\nlambda = 0.25\n")
    model = load_model_file(path)
    grid = QuadratureGrid(3)
    with pytest.raises(DomainError) as info:
        functional_F_k(model, grid, 1)
    match = re.fullmatch(
        re.escape(f"metric of model {model.name!r} is not finite at chart-2 grid node (")
        + r"([^)]*)\), model point \(([^)]*)\)", str(info.value))
    assert match, str(info.value)
    x, y = (np.array([float(c) for c in group.split(",")]) for group in match.groups())
    assert np.linalg.norm(x) < 3.0
    assert np.min(np.abs(grid.points - x).max(axis=1)) < 1e-5 * max(1.0, np.abs(x).max())
    assert np.allclose(y, x / (x @ x), rtol=1e-5)
    assert x @ x < 1.0 / 769.8


def test_one_structure_and_one_unbatched_expansion_for_every_k(monkeypatch, qe3):
    structures, series, expansions = [], [], []
    init = GridStructure.__init__
    l_operator, volume_coefficients = rho.l_operator, rho.volume_coefficients
    post_init = AmbientExpansion.__post_init__

    def counted_init(self, *args):
        structures.append(args)
        init(self, *args)

    def counted_l_operator(a, m, k):
        series.append((a.gcoeffs.ndim, k))
        return l_operator(a, m, k)

    def counted_volume_coefficients(a, m):
        series.append((a.gcoeffs.ndim, "v"))
        return volume_coefficients(a, m)

    def counted_expansion(self):
        post_init(self)
        expansions.append(self.gcoeffs.ndim)

    monkeypatch.setattr(GridStructure, "__init__", counted_init)
    monkeypatch.setattr(rho, "l_operator", counted_l_operator)
    monkeypatch.setattr(rho, "volume_coefficients", counted_volume_coefficients)
    monkeypatch.setattr(AmbientExpansion, "__post_init__", counted_expansion)
    grid = QuadratureGrid(3, resolution=20)
    for k in (1, 2, 3):
        functional_F_k(qe3, grid, k)
    trial = AmbientCoordinate(0, 3)
    first_variation(qe3, grid, 2, project_mean_zero(qe3, grid, trial))
    second_variation(qe3, grid, 2, trial)
    assert len(structures) == 1
    # each k is read once, L_k first, from the default K = 5 expansion
    assert series == [(3, 1), (3, "v"), (3, 2), (3, "v"), (3, 3), (3, "v")]
    assert expansions == [3]   # one expansion, and no grid function builds a batched one


def _counted_expansions(monkeypatch):
    orders = []
    post_init = AmbientExpansion.__post_init__

    def counted(self):
        post_init(self)
        orders.append(self.K)

    monkeypatch.setattr(AmbientExpansion, "__post_init__", counted)
    return orders


def test_order_above_the_default_builds_one_more_expansion(monkeypatch, qe3):
    orders = _counted_expansions(monkeypatch)
    bound = QuadratureGrid(3, resolution=10).bind(qe3)
    bound.series_scales(2)
    assert orders == [5]
    for k in (1, 3, 4, 5):
        bound.series_scales(k)
    assert orders == [5]
    assert abs(bound.vk(6)) <= 1e-15   # C(n+m, 6) lam^6 with n+m = 5
    assert orders == [5, 6]


def test_order_above_the_determinacy_cap_still_raises(monkeypatch):
    model = builtin_model("qe_sphere", 3, 3, 1)   # n + m = 6: K capped at 3
    orders = _counted_expansions(monkeypatch)
    bound = QuadratureGrid(3, resolution=10).bind(model)
    bound.series_scales(1)
    assert orders == [3]
    with pytest.raises(DeterminacyError, match="beyond determinacy order 3"):
        bound.series_scales(4)
    assert orders == [3, 4]


@pytest.mark.parametrize("args", [("qe_sphere", 3, 2, 1), ("qe_sphere", 3, 3, 1),
                                  ("qe_sphere", 2, 2, 1),
                                  ("round_sphere_stereographic", 3)])
def test_scales_of_one_expansion_equal_those_of_the_order_k_expansion(args):
    model = builtin_model(*args)
    bound = QuadratureGrid(model.n, resolution=10).bind(model)
    cap = rho.determinacy_cap(model.n, model.m) or 5
    for k in range(1, min(5, int(cap)) + 1):
        a = model.ambient_at(model.default_point, K=k)
        L = rho.l_operator(a, model.m, k)
        expected = (float(rho.volume_coefficients(a, model.m)[k]),
                    float(np.trace(L @ a.g) / model.n))
        assert bound.series_scales(k) == expected   # bit for bit


def test_gauss_legendre_rule_is_numpys_read_only_and_computed_once_per_degree(
        monkeypatch):
    for degree in (6, 10, 40):
        nodes, weights = variational._gauss_legendre(degree)
        ref_nodes, ref_weights = leggauss(degree)
        assert nodes.tobytes() == ref_nodes.tobytes()
        assert weights.tobytes() == ref_weights.tobytes()
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
    degrees = []
    original = variational.legendre.leggauss

    def counted(degree):
        degrees.append(degree)
        return original(degree)

    monkeypatch.setattr(variational.legendre, "leggauss", counted)
    variational._gauss_legendre.cache_clear()
    suites.suite_variational(np.random.default_rng(suites.DEFAULT_SEED))
    # four grids (resolution 40 twice, 10 and 20) ask for seven rules
    assert sorted(degrees) == [6, 10, 20, 40]


def test_grid_vk_closed_form(qe3):
    grid = QuadratureGrid(3, resolution=20)
    bound = grid.bind(qe3)
    nm, lam = qe3.n + qe3.m, qe3.lam
    for k in (1, 2, 3, 4):
        exact = math.comb(round(nm), k) * lam**k
        assert abs(bound.vk(k) - exact) <= 1e-15 * exact


def test_grid_vk_needs_positive_density_on_every_node():
    # positive at the origin, where the series scales are taken, and
    # negative on the nodes with x < -1/2; binding rejects it before f^m,
    # which at a non-integer m would be nan with a RuntimeWarning
    tilted = dataclasses.replace(builtin_model("qe_sphere", 3, 2.5, 1),
                                 name="tilted", f_expr=parse_expression("1 + 2*x"))
    grid = QuadratureGrid(3, resolution=10)
    for operation in (weighted_volume, lambda model, grid: functional_F_k(model, grid, 1)):
        with pytest.raises(DomainError, match="base density must be positive: the "
                           "density of model 'tilted' is not positive on every grid node"):
            operation(tilted, grid)


def _with_density(text, name="qe_sphere"):
    return dataclasses.replace(builtin_model("qe_sphere", 3, 2.5, 1), name=name,
                               f_expr=parse_expression(text))


def test_weighted_volume_reads_each_chart_at_its_own_points():
    # f = 2 +- xi_3 with xi_3 = (r^2-1)/(r^2+1) in chart 1: the weighted
    # volume is 4 pi int_0^pi (2 +- cos t)^(5/2) sin^2 t dt, the same for
    # both signs; chart 2's nodes must be evaluated at X/|X|^2
    t, w = np.polynomial.legendre.leggauss(200)
    theta = 0.5 * math.pi * (t + 1.0)
    exact = 2.0 * math.pi**2 * np.dot(w, (2.0 + np.cos(theta))**2.5 * np.sin(theta)**2)
    grid = QuadratureGrid(3, resolution=40)
    xi3 = "(x^2+y^2+z^2-1)/(x^2+y^2+z^2+1)"
    volumes = [weighted_volume(_with_density(f"2{sign}{xi3}"), grid) for sign in "+-"]
    for volume in volumes:
        assert abs(volume - exact) <= 1e-8 * exact
    assert volumes[0] == pytest.approx(volumes[1], rel=1e-12)
    # a constant density gives equal rows on both charts
    bound = grid.bind(builtin_model("qe_sphere", 3, 2.5, 1))
    assert bound.fm.shape == (2, len(grid.weights))
    assert np.array_equal(bound.fm[0], bound.fm[1])


@pytest.mark.parametrize("density, message", [
    ("exp(1000)", "density of model 'big' is not finite on 648 grid nodes"),
    ("1e300", r"weight f\^m \(m = 2.5\) of model 'big' is not a positive finite "
     r"number at point \("),
    ("1e-320", r"weight f\^m \(m = 2.5\) of model 'big' is not a positive finite "
     r"number at point \("),
])
def test_grid_density_whose_weight_is_not_finite_and_positive(density, message):
    grid = QuadratureGrid(3, resolution=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            grid.bind(_with_density(density, name="big"))


def test_grid_density_domain_error_is_short_and_names_the_model():
    with pytest.raises(DomainError) as info:
        weighted_volume(_with_density("log(x)", name="logx"), QuadratureGrid(3, 10))
    text = str(info.value)
    assert len(text) < 300
    assert "density of model 'logx' is undefined on 648 grid nodes" in text
    assert "log(an array of shape (648,), first offending entry -" in text


def test_grid_checks_the_domain_on_every_node():
    # the hyperbolic domain z > 0 excludes the nodes with z <= 0
    hyperbolic = builtin_model("hyperbolic_upper_half", 3)
    with pytest.raises(DomainError, match=r"metric of model 'hyperbolic_upper_half' "
                       r"is undefined on 648 grid nodes \(model domain: points with "
                       r"z > 0\): a node lies outside the domain$"):
        QuadratureGrid(3, resolution=10).bind(hyperbolic)


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
    ones = np.ones((2, len(grid3.points)))
    expected = 3.0 * 1.25 * math.pi**2
    assert first_variation(qe3, grid3, 1, ones) == pytest.approx(
        expected, abs=1e-4
    )


def test_first_variation_conformally_invariant_order(grid3):
    # n + m = 2k kills the variation for every trial
    model = builtin_model("qe_sphere", 3, 3, 1)
    ones = np.ones((2, len(grid3.points)))
    assert first_variation(model, grid3, 3, ones) == 0.0
    rng = np.random.default_rng(3)
    omega = random_combination(rng, 3)
    assert first_variation(model, grid3, 3, omega.value(grid3.table)) == 0.0


def test_grid_values_of_another_shape_raise(grid3, qe3):
    # a (N,) array would broadcast silently against the (2, N) f^m
    N = len(grid3.weights)
    for shape in ((N,), (1, N), (3, N), (2, N - 1), (N, 2), (2, N, 1), (2, 1)):
        values = np.ones(shape)
        message = re.escape(f"per-node grid values need shape (2, {N}), "
                            f"got {shape}")
        for call in (lambda: first_variation(qe3, grid3, 1, values),
                     lambda: delta_vk_identity_check(qe3, grid3, 1, values),
                     lambda: grid3.integrate(values)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call()


def test_divergence_identity(grid3, qe3):
    trials = coordinate_harmonics(3) + degree_two_harmonics(3)
    for field in trials[:4]:
        lb = laplace_beltrami_values(field, grid3.table)
        for k in (1, 2, 3):
            assert delta_vk_identity_check(qe3, grid3, k, lb) <= 1e-6


def test_divergence_identity_constant_field(grid3, qe3):
    lb = laplace_beltrami_values(Constant(3.0), grid3.table)
    assert delta_vk_identity_check(qe3, grid3, 2, lb) == pytest.approx(0.0, abs=1e-12)


def test_divergence_identity_needs_lam(grid3):
    rs = builtin_model("round_sphere_stereographic", 3, m=2.0)
    with pytest.raises(ModelError):
        delta_vk_identity_check(
            rs, grid3, 1, laplace_beltrami_values(AmbientCoordinate(0, 3), grid3.table))


def test_suite_evaluates_each_trial_laplacian_once(monkeypatch):
    fields_seen = []
    original = variational.laplace_beltrami_values

    def counted(field, table):
        fields_seen.append(field)
        return original(field, table)

    monkeypatch.setattr(variational, "laplace_beltrami_values", counted)
    suites.suite_variational(np.random.default_rng(suites.DEFAULT_SEED))
    # ten trials, both charts at once, shared by k = 1, 2, 3
    assert len(fields_seen) == 10
    assert len({id(f) for f in fields_seen}) == 10


def test_suite_builds_each_chart_table_once_per_grid(monkeypatch):
    # D and the xi_a closed forms are computed in one table for both charts
    # of the one grid that evaluates fields, and never on the grids used
    # only for weight_sum
    grids, builds = [], []
    init, table_init = QuadratureGrid.__init__, ChartTable.__init__

    def counted_init(self, *args, **kwargs):
        grids.append(self)
        init(self, *args, **kwargs)

    def counted_table(self, X):
        builds.append(X)
        table_init(self, X)

    monkeypatch.setattr(QuadratureGrid, "__init__", counted_init)
    monkeypatch.setattr(ChartTable, "__init__", counted_table)
    suites.suite_variational(np.random.default_rng(suites.DEFAULT_SEED))
    assert len(grids) == 4
    evaluated = [grid for grid in grids if "table" in vars(grid)]
    assert len(evaluated) == 1
    assert len(builds) == 1 and builds[0] is evaluated[0].points


def test_ambient_coordinates_read_rows_of_the_chart_table(grid3):
    table = grid3.table
    N = len(grid3.points)
    for field in coordinate_harmonics(3):
        for method, rows, shape in ((field.value, table.xi, (2, N)),
                                    (field.grad, table.dxi, (3, 2, N))):
            out = method(table)
            assert out.base is rows and np.array_equal(out, rows[field.a])
            assert out.shape == shape
    for array in (table.XT, table.D, table.xi, table.dxi):
        assert not array.flags.writeable
    assert grid3.table is table
    assert np.array_equal(table.sign, [[1.0], [-1.0]])


@pytest.mark.parametrize("field", [AmbientCoordinate(3, 3), AmbientCoordinate(2, 3),
                                   random_combination(np.random.default_rng(2), 3)])
def test_field_on_a_grid_of_another_dimension_raises(grid2, field):
    message = "field dimension 3 does not match grid dimension 2"
    for evaluate in (lambda: field.value(grid2.table),
                     lambda: laplace_beltrami_values(field, grid2.table),
                     lambda: field.coefficients(2),
                     lambda: field.grad(grid2.table),
                     lambda: field.hess(grid2.table)):
        with pytest.raises(DomainError, match=f"^{message}$"):
            evaluate()


def test_constant_field_evaluates_on_any_grid(grid2):
    table = grid2.table
    N = len(table.D)
    c = Constant(2.5)
    assert np.array_equal(c.value(table), np.full((2, N), 2.5))
    assert c.grad(table).shape == (2, 2, N) and not c.grad(table).any()
    assert c.hess(table).shape == (2, 2, 2, N) and not c.hess(table).any()
    assert not laplace_beltrami_values(c, table).any()


@pytest.mark.parametrize("a, n", [(1.5, 3), (np.float64(1.0), 3), ("1", 3), (-1, 3),
                                  (4, 3), (0, 2.0)])
def test_ambient_coordinate_rejects_bad_indices(a, n):
    with pytest.raises(DomainError):
        AmbientCoordinate(a, n)


def test_ambient_coordinate_accepts_numpy_integers():
    field = AmbientCoordinate(np.int64(1), np.int32(3))
    assert (field.a, field.n) == (1, 3) and type(field.a) is int


@pytest.mark.parametrize("args", [(3, 4.5), (3.0, 10), (3, "10"), (4, 10), (3, 3)])
def test_grid_rejects_bad_dimension_and_resolution(args):
    with pytest.raises(DomainError):
        QuadratureGrid(*args)


def test_grid_used_only_for_weight_sum_builds_no_chart_tables():
    grid = QuadratureGrid(3, resolution=10)
    grid.weight_sum()
    grid.bind(builtin_model("qe_sphere", 3, 2, 1))
    assert "table" not in vars(grid)


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


@pytest.mark.parametrize("c", [0.0, 0.1, 3.7, 1e5])
def test_constant_trials_raise(grid3, qe3, c):
    # the mean-zero projection of a constant is rounding: no quotient, no sign
    xi = AmbientCoordinate(0, 3)
    for trial in (Constant(c), Sum([Constant(c), xi], [1.0, 0.0])):
        for call in (lambda: rayleigh_quotient(qe3, grid3, trial),
                     lambda: second_variation(qe3, grid3, 2, trial)):
            with pytest.raises(DomainError,
                               match="^the trial is constant on the sphere: "):
                call()


def test_a_large_offset_is_not_a_constant_trial(grid3, qe3):
    xi = AmbientCoordinate(0, 3)
    offset = Sum([Constant(1e5), xi], [1.0, 1.0])
    assert rayleigh_quotient(qe3, grid3, offset) == pytest.approx(
        rayleigh_quotient(qe3, grid3, xi), rel=1e-9)


@pytest.mark.parametrize("terms, coeffs, message", [
    ((0, 1), [1.0], "a Sum needs one coefficient per field, got 2 fields and 1 coefficients"),
    ((0,), [1.0, 2.0], "a Sum needs one coefficient per field, got 1 fields and 2 coefficients"),
    ((0, 1), [1.0, float("nan")], "Sum coefficient nan is not a finite real number"),
    ((0,), [float("-inf")], "Sum coefficient -inf is not a finite real number"),
    ((0,), ["1"], "Sum coefficient '1' is not a finite real number"),
    ((0, 1.0), [1.0, 1.0], "Sum term 1.0 is not a SphereField"),
])
def test_sum_rejects_mismatched_and_non_finite_terms(terms, coeffs, message):
    fields = [AmbientCoordinate(t, 3) if isinstance(t, int) else t for t in terms]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Sum(fields, coeffs)


def test_product_and_constant_reject_what_is_not_a_field():
    xi = AmbientCoordinate(0, 3)
    for left, right, bad in ((xi, 2.0, "2.0"), (None, xi, "None")):
        with pytest.raises(DomainError,
                           match=f"^Product factor {bad} is not a SphereField$"):
            Product(left, right)
    with pytest.raises(DomainError, match="^constant nan is not a finite real number$"):
        Constant(float("nan"))
    assert Sum([xi], [np.float64(2.0)]).coeffs == (2.0,)


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


def test_eigenvalue_bound_precondition_rejects_lam_above_bound(grid3, qe3):
    # qe_sphere sits at lam = (n-1)/(2(n+m-1)) = 0.25, where the gap is 0
    assert eigenvalue_bound_check(qe3, grid3).passed
    over = dataclasses.replace(qe3, lam=0.3)
    worst = (2.0 * 4.0 * 0.3 - 2.0) * grid3.conf.max()
    with pytest.raises(DomainError, match=re.escape(
            f"curvature lower bound fails on the grid (violation {worst:.3e})")):
        eigenvalue_bound_check(over, grid3)


def test_eigenvalue_bound_gap_closed_form_matches_jets(grid3):
    # the closed form ((n-1) - 2(n+m-1) lam) conf I against jet curvature
    over = dataclasses.replace(builtin_model("qe_sphere", 3, 2, 1), lam=0.3)
    for node in range(0, len(grid3.points), len(grid3.points) // 7):
        p = over.structure_at(grid3.points[node], order=2)
        gap = weighted_invariants(p).ric_phi - 2.0 * 4.0 * 0.3 * p.g.matrix
        np.testing.assert_allclose(
            gap, (2.0 - 2.0 * 4.0 * 0.3) * grid3.conf[node] * np.eye(3),
            rtol=0, atol=1e-12)


def test_variational_suite_evaluates_no_jets(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the variational suite evaluated jet curvature")

    monkeypatch.setattr(ModelSpec, "structure_at", forbidden)
    for module in [mod for name, mod in sys.modules.items()
                   if name.split(".")[0] == "wrvc"]:
        for name in ("weighted_invariants", "curvature"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    results = suites.suite_variational(np.random.default_rng(suites.DEFAULT_SEED))
    assert results and all(r.passed for r in results)


def test_grid_operations_without_lam_raise_one_message(grid3):
    rs = builtin_model("round_sphere_stereographic", 3, m=2.0)
    assert rs.lam is None
    xi = AmbientCoordinate(0, 3)
    message = ("grid operations need a proportional model; model "
               "'round_sphere_stereographic' has no proportionality constant")
    for call in (lambda: functional_F_k(rs, grid3, 1),
                 lambda: delta_vk_identity_check(
                     rs, grid3, 1, laplace_beltrami_values(xi, grid3.table)),
                 lambda: second_variation(rs, grid3, 1, xi),
                 lambda: eigenvalue_bound_check(rs, grid3)):
        with pytest.raises(ModelError) as exc:
            call()
        assert str(exc.value) == message


def test_degree_two_quotient(grid3, qe3):
    for field in degree_two_harmonics(3)[:3]:
        assert rayleigh_quotient(qe3, grid3, field) == pytest.approx(8.0, abs=1e-4)


def test_eigenvalue_bound_quotients_are_fresh_rayleigh_quotients(qe3):
    expected = [rayleigh_quotient(qe3, QuadratureGrid(3, resolution=20), f)
                for f in coordinate_harmonics(3)]
    rep = eigenvalue_bound_check(qe3, QuadratureGrid(3, resolution=20))
    assert rep.quotients == expected

