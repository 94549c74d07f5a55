"""Named verification suites behind the ``verify`` command.

Each suite replays the module-level identities with seeded randomness and
returns one row per check: name, residual, tolerance.  A residual at or
below its tolerance passes; contract checks (an error must be raised, a
sign must match) report residual 0.0 or 1.0 against tolerance 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import variational
from .errors import DeterminacyError
from .fields import AmbientCoordinate, coordinate_harmonics, degree_two_harmonics, random_combination
from .geometry import MetricAtPoint, curvature, laplacian
from .jets import Jet, hessian_index, n_coeffs
from .models import builtin_model, lcf_candidate_ambient
from .rho import (
    _cauchy,
    _matrix_inverse,
    _scalar_inverse,
    f_second_residual,
    l_operator,
    l_operator_series,
    lambda_one_series,
    obstruction_tensors,
    poincare_to_ambient,
    volume_coefficients,
)
from .weighted import (
    MetricMeasurePoint,
    check_conformal_laws,
    conformal_rescale,
    generalized_binomial,
    ric_phi_alternate,
    sigma_k_phi,
    v1_v2_closed_form,
    weighted_invariants,
)

DEFAULT_SEED = 20240601

SUITE_NAMES = ("jets", "curvature", "conformal", "ambient", "variational")


@dataclass
class CheckResult:
    suite: str
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_record(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _contract(suite, name, ok) -> CheckResult:
    return CheckResult(suite, name, 0.0 if ok else 1.0, 0.5)


# -- shared random structures ---------------------------------------------


def _random_jet(rng, dim, order, scale=1.0):
    return Jet(dim, order, rng.uniform(-scale, scale, n_coeffs(dim, order)))


def _sym(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (a + a.T)


def _random_poly(rng, point, order, scale):
    """c + sum_k r_k x_k + sum_{k<=l} r_kl x_k x_l as a jet of ``order`` at
    ``point``, its coefficients written directly.  The draws (c, then r_k
    and r_kk .. r_kn for each k) and every coefficient's sum are those of
    the same polynomial built from coordinate jets, bit for bit."""
    x = [float(v) for v in point]
    n = len(x)
    draws = iter(rng.uniform(-scale, scale, 1 + n + n * (n + 1) // 2).tolist())
    quadratic, _ = hessian_index(n)
    coeffs = np.zeros(n_coeffs(n, order))
    c = next(draws)
    linear = [0.0] * n
    for k in range(n):
        r = next(draws)
        c += r * x[k]
        linear[k] += r
        for l in range(k, n):
            r = next(draws)
            a0 = r * x[k]   # the constant term of r * x_k, times x_l below
            c += a0 * x[l]
            if k == l:
                linear[k] += a0 + a0
            else:
                linear[k] += r * x[l]
                linear[l] += a0
            coeffs[quadratic[k, l]] = r
    coeffs[0] = c
    coeffs[1:n + 1] = linear
    return Jet(n, order, coeffs)


def _random_metric(rng, n=3, order=4, scale=0.12):
    point = rng.uniform(-0.2, 0.2, n)
    G = np.zeros((n, n, n_coeffs(n, order)))
    for i in range(n):
        for j in range(i, n):
            pert = _random_poly(rng, point, order, scale).coeffs
            pert[0] = rng.uniform(-scale, scale) + (1.0 if i == j else 0.0)
            G[i, j] = G[j, i] = pert
    return MetricAtPoint(G, point)


def _random_structure(rng, n=3, m=2.0, mu=0.3, order=4):
    metric = _random_metric(rng, n, order)
    f = _random_poly(rng, metric.point, order, 0.25).exp()
    return MetricMeasurePoint(metric, f.coeffs, m, mu)


def _random_omega(rng):
    """Twenty deformations omega, the rows of a (20, ncoef) array of 2-jets in 3 variables."""
    return rng.uniform(-0.4, 0.4, (20, n_coeffs(3, 2)))


# -- suites ------------------------------------------------------------------


def suite_jets(rng) -> list:
    out = []
    assoc = distrib = 0.0
    for _ in range(20):
        a, b, c = (_random_jet(rng, 3, 3) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        scale = max(1.0, np.abs(lhs.coeffs).max())
        assoc = max(assoc, np.abs(lhs.coeffs - rhs.coeffs).max() / scale)
        lhs, rhs = a * (b + c), a * b + a * c
        distrib = max(distrib, np.abs(lhs.coeffs - rhs.coeffs).max() / scale)
    out.append(CheckResult("jets", "ring_associativity", assoc, 1e-13))
    out.append(CheckResult("jets", "ring_distributivity", distrib, 1e-13))

    deriv = 0.0
    for _ in range(20):
        a, b = _random_jet(rng, 2, 3), _random_jet(rng, 2, 3)
        lhs = (a * b).partial((1, 0))
        rhs = a.partial((1, 0)) * b.value + a.value * b.partial((1, 0))
        deriv = max(deriv, abs(lhs - rhs))
    out.append(CheckResult("jets", "derivation_property", deriv, 1e-13))

    hom = 0.0
    for _ in range(10):
        a, b = _random_jet(rng, 2, 4), _random_jet(rng, 2, 4)
        lhs = (a + b).exp()
        rhs = a.exp() * b.exp()
        scale = max(1.0, np.abs(lhs.coeffs).max())
        hom = max(hom, np.abs(lhs.coeffs - rhs.coeffs).max() / scale)
    out.append(CheckResult("jets", "exp_homomorphism", hom, 1e-12))

    rt = 0.0
    for _ in range(10):
        a = _random_jet(rng, 3, 4)
        rt = max(rt, np.abs(a.exp().log().coeffs - a.coeffs).max())
    out.append(CheckResult("jets", "log_exp_roundtrip", rt, 1e-12))

    x = Jet.variable(0, 1.5, 2, 4)
    y = Jet.variable(1, -0.5, 2, 4)
    p = 2.0 + 3.0 * x * y - x * x * y * y
    exact = abs(p.partial((2, 2)) + 4.0) + abs(
        p.partial((1, 1)) - (3.0 - 4.0 * 1.5 * -0.5)
    )
    out.append(CheckResult("jets", "polynomial_exactness", exact, 1e-12))
    return out


def suite_curvature(rng) -> list:
    out = []
    sym_res = bianchi_res = ric_res = 0.0
    for _ in range(5):
        metric = _random_metric(rng)
        bundle = curvature(metric)
        R = bundle.riem
        sym_res = max(
            sym_res,
            np.abs(R + R.transpose(1, 0, 2, 3)).max(),
            np.abs(R + R.transpose(0, 1, 3, 2)).max(),
            np.abs(R - R.transpose(2, 3, 0, 1)).max(),
        )
        bianchi_res = max(
            bianchi_res,
            np.abs(R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)).max(),
        )
        ric_from_riem = np.einsum("kl,kilj->ij", metric.inverse_matrix, R)
        ric_res = max(
            ric_res,
            np.abs(bundle.ric - ric_from_riem).max(),
            np.abs(bundle.ric - bundle.ric.T).max(),
        )
    out.append(CheckResult("curvature", "riemann_symmetries", sym_res, 1e-10))
    out.append(CheckResult("curvature", "first_bianchi", bianchi_res, 1e-10))
    out.append(CheckResult("curvature", "ricci_contraction", ric_res, 1e-10))

    sphere = builtin_model("round_sphere_stereographic", 3)
    p = sphere.metric_at([0.1, 0.0, 0.0])
    b = curvature(p)
    res = max(np.abs(b.ric - 2.0 * p.matrix).max(), abs(b.scalar - 6.0))
    out.append(CheckResult("curvature", "unit_sphere_closed_form", res, 1e-10))

    hyp = builtin_model("hyperbolic_upper_half", 2)
    # n = 2 metric only (no weighted quantities involved here)
    res = abs(curvature(hyp.metric_at([0.0, 1.0])).scalar + 2.0)
    out.append(CheckResult("curvature", "hyperbolic_plane_scalar", res, 1e-10))

    rescale_res = 0.0
    for c in (0.5, 2.0):
        metric = _random_metric(rng)
        scaled = MetricAtPoint(metric.G * c**2, metric.point)
        rescale_res = max(
            rescale_res,
            abs(curvature(scaled).scalar - curvature(metric).scalar / c**2),
        )
    out.append(CheckResult("curvature", "constant_rescale_law", rescale_res, 1e-10))

    prod_res = 0.0
    for _ in range(3):
        metric = _random_metric(rng)
        u, v = (_random_poly(rng, metric.point, 4, 0.5) for _ in range(2))
        inner = float(
            np.array([u.partial(tuple(int(i == t) for t in range(3)))
                      for i in range(3)])
            @ metric.inverse_matrix
            @ np.array([v.partial(tuple(int(i == t) for t in range(3)))
                        for i in range(3)])
        )
        lhs = laplacian((u * v).coeffs, metric)
        rhs = u.value * laplacian(v.coeffs, metric) + v.value * laplacian(u.coeffs, metric) \
            + 2.0 * inner
        prod_res = max(prod_res, abs(lhs - rhs))
    out.append(CheckResult("curvature", "laplacian_product_rule", prod_res, 1e-10))
    return out


def _conformal_models():
    qe = builtin_model("qe_sphere", 3, 2, 1)
    models = [
        ("qe_sphere", qe.structure_at([0.1, 0.2, 0.0])),
        ("euclidean_m2", builtin_model("euclidean", 3, m=2.0).structure_at(
            [0.0, 0.0, 0.0])),
    ]
    # flat structure with a Gaussian density: nonconstant drift term
    x = [Jet.variable(i, v, 3, 4) for i, v in enumerate([0.3, -0.1, 0.2])]
    G = np.zeros((3, 3, n_coeffs(3, 4)))
    G[:, :, 0] = np.eye(3)
    g = MetricAtPoint(G, [0.3, -0.1, 0.2])
    f = (sum(xi * xi for xi in x) * (-0.25)).exp()
    models.append(("gaussian_density", MetricMeasurePoint(g, f.coeffs, 2.0, 0.0)))
    return models


def suite_conformal(rng) -> list:
    out = []
    for label, p in _conformal_models():
        res_J = res_P = res_Y = 0.0
        for rep in check_conformal_laws(p, _random_omega(rng)):
            res_J = max(res_J, rep.residual_J)
            res_P = max(res_P, rep.residual_P)
            res_Y = max(res_Y, rep.residual_Y)
        out.append(CheckResult("conformal", f"J_law[{label}]", res_J, 1e-9))
        out.append(CheckResult("conformal", f"P_law[{label}]", res_P, 1e-9))
        out.append(CheckResult("conformal", f"Y_law[{label}]", res_Y, 1e-9))

    alt = 0.0
    for _ in range(5):
        p = _random_structure(rng, m=float(rng.uniform(0.5, 4.0)))
        alt = max(alt, np.abs(
            ric_phi_alternate(p) - weighted_invariants(p).ric_phi).max())
    out.append(CheckResult("conformal", "ric_phi_two_routes", alt, 1e-10))

    density = 0.0
    for _ in range(5):
        p = _random_structure(rng, m=2.0)
        omega = _random_jet(rng, 3, 4, 0.4)
        q = conformal_rescale(p, omega.coeffs)
        lhs = Jet(3, 4, q.f) ** 2 * Jet(3, 4, q.g.det_coeffs()).sqrt()
        rhs = ((omega * 5.0).exp() * Jet(3, 4, p.f) ** 2
               * Jet(3, 4, p.g.det_coeffs()).sqrt())
        scale = max(1.0, np.abs(lhs.coeffs).max())
        density = max(density, np.abs(lhs.coeffs - rhs.coeffs).max() / scale)
    out.append(CheckResult("conformal", "volume_density_scaling", density, 1e-11))
    return out


def suite_ambient(rng) -> list:
    out = []
    qe = builtin_model("qe_sphere", 3, 2, 1)
    point = [0.1, 0.2, 0.0]
    a = qe.ambient_at(point, K=5)
    v = volume_coefficients(a, qe.m)
    expected = np.array([5 / 4, 5 / 8, 5 / 32, 5 / 256, 1 / 1024])
    out.append(CheckResult(
        "ambient", "quasi_einstein_v_closed_form",
        float(np.abs(v.v - expected).max()), 1e-12,
    ))

    ginv = np.linalg.inv(a.g)
    l_res = 0.0
    for k in range(1, 6):
        closed = -math.comb(4, k - 1) * 0.25 ** (k - 1) * ginv
        l_res = max(l_res, np.abs(l_operator(a, qe.m, k) - closed).max())
    out.append(CheckResult("ambient", "l_operator_closed_form", l_res, 1e-12))

    S = l_operator_series(a, qe.m)
    series_res = 0.0
    for k in range(6):
        coeff = math.comb(4, k - 1) * 0.25 ** (k - 1) if k >= 1 else 0.0
        series_res = max(series_res, np.abs(S[k] - coeff * ginv).max())
    out.append(CheckResult("ambient", "l_series_product_form", series_res, 1e-12))

    sigma_res = v1_res = v2_res = obstruction_res = trace_res = fpp_res = 0.0
    lambda1_res = 0.0
    for _ in range(10):
        m = float(rng.choice([2.0, 2.5, 4.0, 1.3]))
        g = np.eye(3) + 0.2 * _sym(rng, 3)
        P = 0.4 * _sym(rng, 3)
        Y = float(rng.uniform(-1, 1))
        f = float(rng.uniform(0.5, 2.0))
        al = lcf_candidate_ambient(g, f, P, Y, m, 5)
        vl = volume_coefficients(al, m)
        for k in range(1, 6):
            sigma_res = max(sigma_res, abs(vl[k] - sigma_k_phi(Y, P, g, m, k)))
        J = float(np.trace(np.linalg.solve(g, P))) + Y
        v1_res = max(v1_res, abs(vl[1] - J))
        _, v2 = v1_v2_closed_form(J, P, Y, g, m)
        v2_res = max(v2_res, abs(vl[2] - v2))
        obs = obstruction_tensors(al)
        obstruction_res = max(obstruction_res, float(obs.sup_norms().max()))
        trace_res = max(trace_res, float(obs.trace_norms(g).max()))
        fpp_res = max(fpp_res, float(f_second_residual(al, m)))
        lambda1_res = max(lambda1_res, float(np.abs(lambda_one_series(al)).max()))
    out.append(CheckResult("ambient", "lcf_v_equals_sigma", sigma_res, 1e-10))
    out.append(CheckResult("ambient", "v1_equals_J", v1_res, 1e-10))
    out.append(CheckResult("ambient", "v2_closed_form", v2_res, 1e-10))
    out.append(CheckResult("ambient", "lambda1_series_vanishes", lambda1_res, 1e-12))
    out.append(CheckResult("ambient", "obstructions_vanish", obstruction_res, 1e-12))
    out.append(CheckResult("ambient", "obstruction_traces_vanish", trace_res, 1e-12))
    out.append(CheckResult("ambient", "density_second_order_relation", fpp_res, 1e-12))

    obs_qe = obstruction_tensors(a)
    out.append(CheckResult(
        "ambient", "quasi_einstein_obstructions_vanish",
        float(obs_qe.sup_norms().max()), 1e-12,
    ))

    inv_res = 0.0
    for _ in range(5):
        s = np.concatenate([[rng.uniform(1.0, 2.0)], rng.uniform(-1, 1, 5)])
        prod = _cauchy(s, _scalar_inverse(s))
        prod[0] -= 1.0
        inv_res = max(inv_res, np.abs(prod).max())
        M = rng.uniform(-0.3, 0.3, (5, 3, 3))
        M[0] += np.eye(3)
        mm = _cauchy(M, _matrix_inverse(M), matmul=True)
        mm[0] -= np.eye(3)
        inv_res = max(inv_res, np.abs(mm).max())
    out.append(CheckResult("ambient", "series_inverse_roundtrip", inv_res, 1e-12))

    sub_res = float(np.abs(poincare_to_ambient([1.0, 0.0, -0.25, 0.0, 0.25**2 / 4.0])
                           - np.array([1.0, 0.5, 0.0625])).max())
    out.append(CheckResult("ambient", "even_power_substitution", sub_res, 1e-13))

    try:
        volume_coefficients(
            builtin_model("qe_sphere", 2, 2, 1).ambient_at([0.1, 0.0], K=3),
            2.0,
        )
        cap_ok = False
    except DeterminacyError:
        cap_ok = True
    out.append(_contract("ambient", "determinacy_cap_enforced", cap_ok))

    vandermonde = 0.0
    for m in (1.0, 2.0, 3.0, 2.5):
        lam = float(rng.uniform(-0.5, 0.5))
        g = np.eye(3) + 0.1 * _sym(rng, 3)
        for k in range(5):
            expect = generalized_binomial(3 + m, k) * lam**k
            vandermonde = max(
                vandermonde,
                abs(sigma_k_phi(m * lam, lam * g, g, m, k) - expect),
            )
    out.append(CheckResult("ambient", "sigma_vandermonde_collapse", vandermonde, 1e-12))
    return out


def suite_variational(rng) -> list:
    out = []
    grid = variational.QuadratureGrid(3)
    grid2 = variational.QuadratureGrid(2)
    qe = builtin_model("qe_sphere", 3, 2, 1)

    out.append(CheckResult(
        "variational", "grid_weight_sum_s3",
        abs(grid.weight_sum() - 2 * math.pi**2), 1e-6,
    ))
    out.append(CheckResult(
        "variational", "grid_weight_sum_s2",
        abs(grid2.weight_sum() - 4 * math.pi), 1e-6,
    ))

    e_coarse = abs(variational.QuadratureGrid(3, resolution=10).weight_sum()
                   - 2 * math.pi**2)
    e_fine = abs(variational.QuadratureGrid(3, resolution=20).weight_sum()
                 - 2 * math.pi**2)
    out.append(CheckResult(
        "variational", "refinement_reduces_error_4x",
        max(0.0, 4.0 - e_coarse / e_fine), 0.0,
    ))

    out.append(CheckResult(
        "variational", "weighted_volume_qe_sphere",
        abs(variational.weighted_volume(qe, grid) - math.pi**2), 1e-5,
    ))

    fk_res = max(
        abs(variational.functional_F_k(qe, grid, 1) - 1.25 * math.pi**2),
        abs(variational.functional_F_k(qe, grid, 2) - 0.625 * math.pi**2),
    )
    out.append(CheckResult("variational", "functional_F_k_values", fk_res, 1e-4))

    fv_res = 0.0
    for field in coordinate_harmonics(3):
        vals = variational.project_mean_zero(qe, grid, field)
        fv_res = max(fv_res, abs(variational.first_variation(qe, grid, 1, vals)))
    out.append(CheckResult("variational", "first_variation_mean_zero", fv_res, 1e-8))

    ones = np.ones((2, len(grid.points)))
    out.append(CheckResult(
        "variational", "first_variation_constant_trial",
        abs(variational.first_variation(qe, grid, 1, ones)
            - 3.0 * 1.25 * math.pi**2),
        1e-4,
    ))

    invariant_model = builtin_model("qe_sphere", 3, 3, 1)
    omega = random_combination(rng, 3)
    # the trial is read through its own ``value`` (the chart oracle), not
    # ``grid.table.trial``: this is the one call of that oracle on the verify
    # path, and it keeps the ``fields.eval`` span of a traced run, which
    # tests/test_perfbench_tracer.py requires
    out.append(CheckResult(
        "variational", "conformally_invariant_order",
        abs(variational.first_variation(
            invariant_model, grid, 3, omega.value(grid.table))),
        0.0,
    ))

    trials = coordinate_harmonics(3) + degree_two_harmonics(3)
    div_res = 0.0
    for field in trials:
        lb = variational.laplace_beltrami_values(field, grid.table)
        for k in (1, 2, 3):
            div_res = max(div_res, variational.delta_vk_identity_check(qe, grid, k, lb))
    out.append(CheckResult("variational", "divergence_identity", div_res, 1e-6))

    sign_ok = True
    agree_res = 0.0
    xi = AmbientCoordinate(0, 3)
    for k, expected in ((1, 1), (2, 1), (3, -1), (4, -1)):
        rep = variational.second_variation(qe, grid, k, xi)
        sign_ok = sign_ok and rep.sign == expected == rep.predicted_sign
        agree_res = max(agree_res, rep.path_agreement)
    out.append(_contract("variational", "second_variation_sign_table", sign_ok))
    out.append(CheckResult(
        "variational", "second_variation_path_agreement", agree_res, 1e-6,
    ))

    certified = variational.second_variation_sign_certificate
    predicted = variational.predicted_second_variation_sign
    parity_ok = all(   # hyperbolic-type lam < 0, (n+m)/2 = 1.5
        certified(3, 0.0, k, -0.5) == predicted(3, 0.0, k, -0.5) for k in (1, 2)
    ) and all(
        certified(3, 4.0, k, -0.3) == expected == predicted(3, 4.0, k, -0.3)
        for k, expected in ((1, 1), (2, -1), (3, 1), (4, 1), (5, -1), (6, 1))
    )
    out.append(_contract("variational", "negative_lambda_parity_cases", parity_ok))

    rep = variational.eigenvalue_bound_check(qe, grid)
    out.append(_contract(
        "variational", "eigenvalue_bound_strict",
        rep.passed and rep.min_quotient > rep.bound,
    ))
    rs = builtin_model("round_sphere_stereographic", 3)
    rep0 = variational.eigenvalue_bound_check(rs, grid)
    out.append(CheckResult(
        "variational", "eigenvalue_bound_equality_case",
        abs(rep0.min_quotient - rep0.bound), 1e-4,
    ))

    quot_res = 0.0
    for field in degree_two_harmonics(3)[:3]:
        quot_res = max(
            quot_res, abs(variational.rayleigh_quotient(qe, grid, field) - 8.0)
        )
    out.append(CheckResult(
        "variational", "degree_two_rayleigh_quotients", quot_res, 1e-4,
    ))
    return out


SUITES = {
    "jets": suite_jets,
    "curvature": suite_curvature,
    "conformal": suite_conformal,
    "ambient": suite_ambient,
    "variational": suite_variational,
}


def run_suites(names, seed: int = DEFAULT_SEED) -> list:
    """Run the named suites with a fresh seeded generator per suite."""
    results = []
    for name in names:
        rng = np.random.default_rng(seed)
        results.extend(SUITES[name](rng))
    return results
