"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or ``-v -rA``) and asserts at the stated tolerance, so the suite both
documents and enforces the acceptance gate.
"""

import math
import time

import numpy as np
import pytest

from wrvc.errors import DeterminacyError
from wrvc.fields import coordinate_harmonics, degree_two_harmonics
from wrvc.jets import Jet
from wrvc.models import (
    builtin_model,
    lcf_candidate_ambient,
)
from wrvc.rho import (
    l_operator,
    l_operator_series,
    obstruction_tensors,
    volume_coefficients,
)
from wrvc.variational import (
    QuadratureGrid,
    delta_vk_identity_check,
    eigenvalue_bound_check,
    first_variation,
    project_mean_zero,
    second_variation,
    second_variation_sign_certificate,
    volume_convergence_study,
    weighted_volume,
)
from wrvc.weighted import (
    ConformalDeformation,
    check_conformal_laws,
    sigma_k_phi,
)


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _sym(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, (n, n))
    return 0.5 * (a + a.T)


@pytest.fixture(scope="module")
def qe3():
    return builtin_model("qe_sphere", 3, 2, 1)


@pytest.fixture(scope="module")
def grid3():
    return QuadratureGrid(3)


def test_criterion_1_quasi_einstein_closed_form(qe3):
    start = time.perf_counter()
    a = qe3.ambient_at([0.1, 0.2, 0.0], K=5)
    v = volume_coefficients(a, qe3.m)
    expected = np.array([5 / 4, 5 / 8, 5 / 32, 5 / 256, 1 / 1024])
    err = float(np.abs(v.v - expected).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        err <= 1e-10 and elapsed < 1.0,
        f"v_1..v_5 vs closed form: max err {err:.2e} (tol 1e-10), "
        f"runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_v1_v2_displays():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        m = float(rng.choice([2.0, 2.5, 4.0, 1.3]))
        g = np.eye(3) + 0.2 * _sym(rng, 3)
        P = 0.4 * _sym(rng, 3)
        Y = float(rng.uniform(-1, 1))
        f = float(rng.uniform(0.5, 2.0))
        v = volume_coefficients(lcf_candidate_ambient(g, f, P, Y, m, 2), m)
        J = float(np.trace(np.linalg.solve(g, P))) + Y
        A = np.linalg.solve(g, P)
        v2 = 0.5 * (J**2 - float(np.einsum("ij,ji->", A, A)) - Y**2 / m)
        worst = max(worst, abs(v[1] - J), abs(v[2] - v2))
    report(
        2,
        worst <= 1e-10,
        f"v_1 = J and the v_2 display over 50 draws: max err {worst:.2e} "
        "(tol 1e-10)",
    )


def test_criterion_3_lcf_oracle_equivalence():
    rng = np.random.default_rng(2025)
    worst_v = worst_omega = 0.0
    for _ in range(20):
        m = float(rng.choice([2.0, 2.5, 4.0, 1.3]))
        g = np.eye(3) + 0.2 * _sym(rng, 3)
        P = 0.4 * _sym(rng, 3)
        Y = float(rng.uniform(-1, 1))
        a = lcf_candidate_ambient(g, float(rng.uniform(0.5, 2.0)), P, Y, m, 5)
        v = volume_coefficients(a, m)
        for k in range(1, 6):
            worst_v = max(worst_v, abs(v[k] - sigma_k_phi(Y, P, g, m, k)))
        worst_omega = max(worst_omega,
                          float(obstruction_tensors(a).sup_norms().max()))
    report(
        3,
        worst_v <= 1e-10 and worst_omega <= 1e-12,
        f"series v_k vs sigma_k: {worst_v:.2e} (tol 1e-10); "
        f"obstruction tensors: {worst_omega:.2e} (tol 1e-12)",
    )


def _conformal_test_models(qe3):
    from wrvc.geometry import MetricAtPoint
    from wrvc.weighted import MetricMeasurePoint

    models = [
        qe3.structure_at([0.1, 0.2, 0.0]),
        builtin_model("euclidean", 3, m=2.0).structure_at([0.0, 0.0, 0.0]),
    ]
    # flat metric with a Gaussian density: nonzero drift in the Y law
    point = [0.3, -0.1, 0.2]
    x = [Jet.variable(i, point[i], 3, 4) for i in range(3)]
    one = Jet.constant(1.0, 3, 4)
    zero = Jet.constant(0.0, 3, 4)
    g = MetricAtPoint(
        [[one if i == j else zero for j in range(3)] for i in range(3)], point
    )
    f = (sum(xi * xi for xi in x) * (-0.25)).exp()
    models.append(MetricMeasurePoint(g, f, 2.0, 0.0))
    return models


def test_criterion_4_conformal_laws(qe3):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for p in _conformal_test_models(qe3):
        for _ in range(20):
            size = Jet(3, 2).coeffs.shape[0]
            omega = Jet(3, 2, rng.uniform(-0.4, 0.4, size))
            rep = check_conformal_laws(
                p, ConformalDeformation(omega, "weighted")
            )
            worst = max(worst, rep.max_residual)
    report(
        4,
        worst <= 1e-9,
        f"J, P, Y change laws, 20 random omega x 3 models: max residual "
        f"{worst:.2e} (tol 1e-9)",
    )


def test_criterion_5_l_operator_closed_form(qe3):
    a = qe3.ambient_at([0.1, 0.2, 0.0], K=5)
    ginv = np.linalg.inv(a.g)
    lam = qe3.lam
    worst_l = 0.0
    for k in range(1, 6):
        closed = -math.comb(4, k - 1) * lam ** (k - 1) * ginv
        worst_l = max(worst_l,
                      float(np.abs(l_operator(a, qe3.m, k) - closed).max()))
    S = l_operator_series(a, qe3.m)
    worst_s = 0.0
    for k in range(6):
        coeff = math.comb(4, k - 1) * lam ** (k - 1) if k >= 1 else 0.0
        worst_s = max(worst_s, float(np.abs(S.coeffs[k] - coeff * ginv).max()))
    report(
        5,
        worst_l <= 1e-12 and worst_s <= 1e-12,
        f"L_k closed form k=1..5: {worst_l:.2e}; product series "
        f"rho(1+lam rho)^(n+m-1) g^ij: {worst_s:.2e} (tol 1e-12)",
    )


def test_criterion_6_weighted_volume(qe3, grid3):
    wv = weighted_volume(qe3, grid3)
    err = abs(wv - math.pi**2)
    study = volume_convergence_study(qe3, math.pi**2, (10, 20))
    order = math.log2(study[0][1] / study[1][1])
    report(
        6,
        err <= 1e-5 and order >= 4.0,
        f"weighted volume {wv:.10f} vs pi^2, err {err:.2e} (tol 1e-5); "
        f"convergence order {order:.1f} (>= 4)",
    )


def test_criterion_7_first_variation(qe3, grid3):
    worst_zero = 0.0
    for field in coordinate_harmonics(3):
        vals = project_mean_zero(qe3, grid3, field)
        worst_zero = max(worst_zero, abs(first_variation(qe3, grid3, 1, vals)))
    ones = [np.ones(len(grid3.points))] * 2
    closed = 3.0 * 1.25 * math.pi**2
    err_const = abs(first_variation(qe3, grid3, 1, ones) - closed)
    model33 = builtin_model("qe_sphere", 3, 3, 1)
    exact_zero = first_variation(model33, grid3, 3, ones)
    report(
        7,
        worst_zero <= 1e-8 and err_const <= 1e-4 and exact_zero == 0.0,
        f"mean-zero: {worst_zero:.2e} (tol 1e-8); constant trial vs closed "
        f"value: {err_const:.2e}; n+m = 2k case: {exact_zero!r} (exactly 0)",
    )


def test_criterion_8_second_variation_sign_table(qe3, grid3):
    signs_ok = True
    worst_agree = 0.0
    detail = []
    for k, expected in ((1, 1), (2, 1), (3, -1), (4, -1)):
        for field in coordinate_harmonics(3):
            rep = second_variation(qe3, grid3, k, field)
            signs_ok = signs_ok and rep.sign == expected == rep.predicted_sign
            worst_agree = max(worst_agree, rep.path_agreement)
        detail.append(f"k={k}:{expected:+d}")
    parity_ok = True
    for k in (1, 2):
        parity_ok &= second_variation_sign_certificate(3, 0.0, k, -0.5)["agrees"]
    for k in range(1, 7):
        parity_ok &= second_variation_sign_certificate(3, 4.0, k, -0.3)["agrees"]
    report(
        8,
        signs_ok and worst_agree <= 1e-6 and parity_ok,
        f"sign table ({', '.join(detail)}) on harmonics, paths agree to "
        f"{worst_agree:.2e} (tol 1e-6); negative-lambda parity certified: "
        f"{parity_ok}",
    )


def test_criterion_9_eigenvalue_bound(qe3, grid3):
    rep = eigenvalue_bound_check(qe3, grid3)
    strict_ok = (
        rep.bound == pytest.approx(2.5)
        and abs(rep.min_quotient - 3.0) <= 1e-4
        and rep.passed
    )
    rs = builtin_model("round_sphere_stereographic", 3)
    rep0 = eigenvalue_bound_check(rs, grid3)
    equality_ok = (
        rep0.bound == pytest.approx(3.0)
        and abs(rep0.min_quotient - 3.0) <= 1e-4
        and rep0.passed
    )
    report(
        9,
        strict_ok and equality_ok,
        f"strict case quotient {rep.min_quotient:.6f} > bound {rep.bound}; "
        f"equality case quotient {rep0.min_quotient:.6f} = bound {rep0.bound}",
    )


def test_criterion_10_divergence_identity(qe3, grid3):
    trials = (coordinate_harmonics(3) + degree_two_harmonics(3))[:10]
    worst = 0.0
    for field in trials:
        worst = max(worst, delta_vk_identity_check(qe3, grid3, 2, field))
    report(
        10,
        len(trials) == 10 and worst <= 1e-6,
        f"divergence term over 10 trials: max {worst:.2e} (tol 1e-6)",
    )


def test_criterion_11_determinacy_cap():
    model = builtin_model("qe_sphere", 2, 2, 1)
    try:
        volume_coefficients(model.ambient_at([0.1, 0.0], K=3), 2.0)
        raised = False
        message = "(no error raised)"
    except DeterminacyError as exc:
        raised = True
        message = str(exc)
    report(
        11,
        raised and "beyond determinacy order 2" in message,
        f"v_3 request with n+m = 4 rejected: {message!r}",
    )
