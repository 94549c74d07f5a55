"""Quadrature over round-sphere models and the variational certificates.

The sphere is covered by two antipodal stereographic charts.  Each chart
carries a polar-form tensor grid: Gauss-Legendre nodes in the radius
(where the partition of unity lives) times an exact-degree angular
product rule (Gauss-Legendre in the polar cosine, uniform in the
azimuth).  The chart overlap is blended by a partition of unity whose
radial profile is a C^11 polynomial smoothstep in log-radius; the two
chart weights sum to the metric measure of the sphere.

Trial fields enter through closed forms evaluated once per node array:
the Laplace-Beltrami operator and the gradient norm are built from the
flat chart Laplacian and gradient, never from an (N, n, n) Hessian.
Reductions sum fixed-size node chunks in index order, so results are
bit-identical from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, ModelError
from .expr import evaluate, has_vars
from .fields import SphereField, coordinate_harmonics, node_D
from .models import ModelSpec
from .rho import _volume_and_l_operator
from .weighted import generalized_binomial, weighted_invariants

_CHUNK = 8192
_DEFAULT_RESOLUTION = 40
_RADIUS = 3.0        # chart radius where the partition of unity reaches 0
_PROFILE_DEGREE = 11
_SAMPLE_NODES = 32   # nodes checked by the eigenvalue bound's precondition
_BOUND_TOL = 1e-6    # margin of the eigenvalue bound against 2(n+m) lam


@lru_cache(maxsize=None)
def _step_coeffs(p: int):
    # antiderivative coefficients of (1 - t^2)^p and its total mass
    c = np.zeros(2 * p + 1)
    for j in range(p + 1):
        c[2 * j] = math.comb(p, j) * (-1.0) ** j
    anti = np.concatenate([[0.0], c / np.arange(1, 2 * p + 2)])
    total = np.polynomial.polynomial.polyval(1.0, anti) - \
        np.polynomial.polynomial.polyval(-1.0, anti)
    return anti, total


def smoothstep_down(s, p: int = _PROFILE_DEGREE):
    """C^p ramp: 1 for s <= -1, 0 for s >= 1, with S(s) + S(-s) = 1."""
    anti, total = _step_coeffs(p)
    s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
    mass = np.polynomial.polynomial.polyval(s, anti) - \
        np.polynomial.polynomial.polyval(-1.0, anti)
    return 1.0 - mass / total


def partition_profile(r):
    """Radial partition-of-unity weight psi with psi(r) + psi(1/r) = 1,
    equal to 1 inside 1/_RADIUS and 0 outside _RADIUS."""
    r = np.asarray(r, dtype=float)
    s = np.full_like(r, -1.0)
    pos = r > 0
    s[pos] = np.log(r[pos]) / np.log(_RADIUS)
    return smoothstep_down(s)


@dataclass(frozen=True)
class Chart:
    index: int
    sign: float


class QuadratureGrid:
    """Two-chart quadrature for integrals over the round n-sphere.

    ``resolution`` is the radial Gauss-Legendre count per chart; the
    angular rule is sized to integrate the low-degree harmonic trials
    exactly, giving ~resolution^n nodes over both charts.  Node weights
    include the partition of unity and the round-metric volume factor,
    so ``sum(weights) = Vol(S^n)`` up to the radial quadrature error.
    """

    def __init__(self, n: int, resolution: int = _DEFAULT_RESOLUTION):
        if n not in (2, 3):
            raise DomainError(f"grids cover sphere dimensions 2 and 3, got {n}")
        if resolution < 4:
            raise DomainError("resolution must be at least 4")
        self.n = n
        self.resolution = resolution
        self.charts = (Chart(0, 1.0), Chart(1, -1.0))

        xs, ws = leggauss(resolution)
        r = 0.5 * _RADIUS * (xs + 1.0)
        wr = 0.5 * _RADIUS * ws

        l_count = max(6, resolution // 4)
        if n == 3:
            mu, wmu = leggauss(l_count)
            phi = 2.0 * math.pi * np.arange(2 * l_count) / (2 * l_count)
            wphi = 2.0 * math.pi / (2 * l_count)
            sin_theta = np.sqrt(1.0 - mu**2)
            dirs = np.stack(
                [
                    np.outer(sin_theta, np.cos(phi)).ravel(),
                    np.outer(sin_theta, np.sin(phi)).ravel(),
                    np.repeat(mu, 2 * l_count),
                ],
                axis=-1,
            )
            wdir = np.repeat(wmu, 2 * l_count) * wphi
        else:
            m_count = 2 * l_count
            alpha = 2.0 * math.pi * np.arange(m_count) / m_count
            dirs = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
            wdir = np.full(m_count, 2.0 * math.pi / m_count)

        X = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        w_geom = (wr[:, None] * wdir[None, :]).ravel()
        rr = np.repeat(r, dirs.shape[0])
        psi = partition_profile(rr)
        conf = 4.0 / (1.0 + rr**2) ** 2
        weights = w_geom * psi * rr ** (n - 1) * conf ** (n / 2.0)

        keep = psi > 0.0
        self.points = X[keep]
        self.weights = weights[keep]
        self.conf = conf[keep]
        self._bound = {}   # id(model) -> GridStructure, which holds the model
        self._lb = None    # (field, per-chart Laplace-Beltrami values), last field

    def bind(self, model: ModelSpec) -> "GridStructure":
        """The model's data on this grid, built once per model object."""
        bound = self._bound.get(id(model))
        if bound is None:
            bound = self._bound[id(model)] = GridStructure(model, self)
        return bound

    def _laplace_beltrami(self, field: SphereField) -> list:
        """Per-chart Laplace-Beltrami values of the field, memoized for the
        most recent field only; the entry holds the field, so its id is
        never reused while the values are kept."""
        if self._lb is None or self._lb[0] is not field:
            self._lb = (field, [laplace_beltrami_values(field, c, self.points)
                                for c in self.charts])
        return self._lb[1]

    @property
    def node_count(self) -> int:
        return 2 * len(self.weights)

    def weight_sum(self) -> float:
        return 2.0 * _chunked_dot(self.weights, np.ones_like(self.weights))

    def integrate(self, per_chart_values) -> float:
        """Sum of w * value over both charts, fixed chunked order."""
        total = 0.0
        for values in per_chart_values:
            total += _chunked_dot(self.weights, values)
        return total


def _chunked_dot(w: np.ndarray, v: np.ndarray) -> float:
    total = 0.0
    for start in range(0, len(w), _CHUNK):
        total += float(np.dot(w[start:start + _CHUNK], v[start:start + _CHUNK]))
    return total


# -- model/grid coupling -------------------------------------------------------


class GridStructure:
    """One model bound to one grid (``QuadratureGrid.bind``): the round-metric
    check on every node, f and f^m per node, the weighted volume, and
    memoized series scales.
    The model's expansion g_rho = (1 + lam rho)^2 g, f_rho = (1 + lam rho) f
    scales g and f by functions of rho alone, so v_k = C(n+m, k) lam^k is
    one constant for every node, read from the series scales.  It keeps the
    grid's arrays, never the grid, so the grid's memo of structures forms no
    reference cycle."""

    def __init__(self, model: ModelSpec, grid: QuadratureGrid):
        if model.n != grid.n:
            raise ModelError(
                f"model dimension {model.n} does not match grid dimension {grid.n}"
            )
        env = {name: grid.points[:, i] for i, name in enumerate(model.coords)}

        def on_nodes(value):
            return np.broadcast_to(np.asarray(value, dtype=float), grid.conf.shape)

        G = model.metric_components(env, on_nodes)
        round_metric = np.eye(model.n)[:, :, None] * grid.conf
        matches = np.isclose(G, round_metric, atol=1e-10).all(axis=2)
        if not matches.all():
            i, j = np.argwhere(~matches)[0]
            raise ModelError(
                "grid quadrature needs the round stereographic metric; "
                f"component g_{i + 1}{j + 1} of {model.name!r} differs"
            )
        self.model = model
        self.f = on_nodes(evaluate(model.f_expr, env))
        self.fm = self.f ** model.m
        self.wvol = grid.integrate([self.fm, self.fm])
        self._scales = {}

    def vk(self, k: int) -> float:
        """v_k, the same on every node (both charts)."""
        if self.model.lam is None:
            raise ModelError(
                f"model {self.model.name!r} has no ambient generator for grids"
            )
        if np.any(self.f <= 0.0):
            raise DomainError("base density must be positive")
        return self.series_scales(k)[0]

    def series_scales(self, k: int):
        """(v_k, l_k) at the reference point, extracted through the rho-series
        path: v_k scalar and the scale l_k with (L_k)^{ij} = l_k g^{ij}."""
        if k not in self._scales:
            model = self.model
            a = model.ambient_at(model.default_point, K=k)
            vk, L = _volume_and_l_operator(a, model.m, k)
            self._scales[k] = float(vk), float(np.trace(L @ a.g) / model.n)
        return self._scales[k]


def _require_constant_density(model: ModelSpec):
    if has_vars(model.f_expr):
        raise ModelError(
            "this operation needs a constant density (drift terms are not "
            "evaluated on grids)"
        )


def weighted_volume(model: ModelSpec, grid: QuadratureGrid) -> float:
    """Integral of f^m against the metric volume, via the grid weights."""
    return grid.bind(model).wvol


def functional_F_k(model: ModelSpec, grid: QuadratureGrid, k: int) -> float:
    """Quadrature of v_k f^m over the sphere."""
    bound = grid.bind(model)
    vals = bound.vk(k) * bound.fm
    return grid.integrate([vals, vals])


def field_values(field: SphereField, grid: QuadratureGrid) -> list:
    return [field.value(c, grid.points) for c in grid.charts]


def weighted_mean(model: ModelSpec, grid: QuadratureGrid, values) -> float:
    bound = grid.bind(model)
    return grid.integrate([v * bound.fm for v in values]) / bound.wvol


def project_mean_zero(model: ModelSpec, grid: QuadratureGrid, field: SphereField):
    """Subtract the weighted mean; returns per-chart value arrays."""
    values = field_values(field, grid)
    c = weighted_mean(model, grid, values)
    return [v - c for v in values]


def first_variation(model: ModelSpec, grid: QuadratureGrid, k: int,
                    omega_values) -> float:
    """(n+m-2k) * integral of v_k omega f^m.

    ``omega_values`` is a SphereField or per-chart value arrays.
    """
    bound = grid.bind(model)
    if isinstance(omega_values, SphereField):
        omega_values = field_values(omega_values, grid)
    vk = bound.vk(k)
    factor = model.n + model.m - 2.0 * k
    return factor * grid.integrate([vk * bound.fm * v for v in omega_values])


def laplace_beltrami_values(field: SphereField, chart, X: np.ndarray) -> np.ndarray:
    """Laplacian of the field in the round metric, from chart data:
    for g = conf * delta with conf = 4/D^2, D = 1 + r^2,
    Delta_g u = (D^2/4) (Delta u - 2 (n-2) x.grad u / D)."""
    n = X.shape[1]
    D = node_D(X)
    flat_lap = field.laplacian(chart, X, D)
    radial = np.einsum("ij,ij->i", X, field.grad(chart, X, D))
    return (D**2 / 4.0) * (flat_lap - (n - 2.0) * 2.0 * radial / D)


def grad_norm2_values(field: SphereField, chart, X: np.ndarray) -> np.ndarray:
    D = node_D(X)
    du = field.grad(chart, X, D)
    flat = np.einsum("ij,ij->i", du, du)
    return (D**2 / 4.0) * flat


def delta_vk_identity_check(model: ModelSpec, grid: QuadratureGrid, k: int,
                            field: SphereField) -> float:
    """|integral of the divergence part of the v_k variation|.

    At a proportional structure the second-order term reduces to
    l_k * Laplacian(omega), whose weighted integral must vanish; the
    returned magnitude is pure quadrature error.
    """
    bound = grid.bind(model)
    _require_constant_density(model)
    if model.lam is None:
        raise ModelError("identity check needs a proportional (lam) model")
    _, lk = bound.series_scales(k)
    vals = [lk * lb * bound.fm for lb in grid._laplace_beltrami(field)]
    return abs(grid.integrate(vals))


# -- second variation -----------------------------------------------------------


@dataclass
class FunctionalReport:
    """Second variation of F_k for one (model, k, trial): both displays,
    their agreement, and the observed and predicted signs."""

    model: str
    n: int
    m: float
    k: int
    lam: float
    weighted_volume: float
    Q_general: float
    Q_reduced: float
    path_agreement: float
    sign: int
    predicted_sign: int
    c_k: float


def c_k_constant(n: int, m: float, k: int) -> float:
    """(n+m-2k) * binomial(n+m-1, k-1), real-m binomial."""
    return (n + m - 2.0 * k) * generalized_binomial(n + m - 1.0, k - 1)


def predicted_second_variation_sign(n: int, m: float, k: int, lam: float) -> int:
    """Definiteness prediction at a proportional structure with J != 0.

    Positive below the half-dimension when J > 0; below it with J < 0 the
    sign alternates with the parity of k; above the half-dimension every
    sign flips.  Requires 1 <= k < n+m and k != (n+m)/2.
    """
    nm = n + m
    if not 1 <= k < nm:
        raise DomainError(f"prediction needs 1 <= k < n+m, got k = {k}")
    if abs(k - nm / 2.0) < 1e-12:
        raise DomainError("k = (n+m)/2 is the conformally invariant order")
    if lam == 0:
        raise DomainError("prediction needs a nonzero proportionality constant")
    below = k < nm / 2.0
    if lam > 0:
        return 1 if below else -1
    odd = k % 2 == 1
    if below:
        return 1 if odd else -1
    return -1 if odd else 1


def second_variation_sign_certificate(n: int, m: float, k: int, lam: float) -> int:
    """Quadrature-free sign of the reduced display.

    Q(omega) = c_k lam^{k-1} * I(omega) with
    I = integral of |grad omega|^2 - 2(n+m) lam omega^2 over the weighted
    volume.  For lam < 0 both integrand terms are positive; for lam > 0
    the spectral gap bound makes I positive on mean-zero omega.  Either
    way sign(Q) = sign(c_k lam^{k-1}).
    """
    return int(np.sign(c_k_constant(n, m, k) * lam ** (k - 1)))


def rayleigh_quotient(model: ModelSpec, grid: QuadratureGrid,
                      field: SphereField) -> float:
    """Dirichlet energy over mass for the mean-zero projection of the trial."""
    fm = grid.bind(model).fm
    _require_constant_density(model)
    values = project_mean_zero(model, grid, field)
    num = grid.integrate(
        [grad_norm2_values(field, c, grid.points) * fm for c in grid.charts]
    )
    den = grid.integrate([v**2 * fm for v in values])
    return num / den


def second_variation(model: ModelSpec, grid: QuadratureGrid, k: int,
                     field: SphereField) -> FunctionalReport:
    """Second-variation quadratic form at a proportional structure,
    evaluated through both displays and cross-checked.

    The general display uses the series-extracted v_k and L_k scales; the
    reduced display uses the binomial closed forms.  The trial is
    projected to weighted mean zero first.
    """
    bound = grid.bind(model)
    _require_constant_density(model)
    if model.lam is None or model.lam == 0.0:
        raise ModelError("second variation needs a proportional model with "
                         "nonzero constant")
    n, m, lam = model.n, model.m, model.lam
    nm = n + m

    values = project_mean_zero(model, grid, field)
    omega2 = grid.integrate([v**2 * bound.fm for v in values])
    dirichlet = grid.integrate(
        [grad_norm2_values(field, c, grid.points) * bound.fm for c in grid.charts]
    )

    vk, lk = bound.series_scales(k)
    q_general = -(nm - 2.0 * k) * (2.0 * k * vk * omega2 + lk * dirichlet)

    ck = c_k_constant(n, m, k)
    q_reduced = ck * lam ** (k - 1) * (dirichlet - 2.0 * nm * lam * omega2)

    return FunctionalReport(
        model=model.name, n=n, m=m, k=k, lam=lam,
        weighted_volume=bound.wvol,
        Q_general=q_general,
        Q_reduced=q_reduced,
        path_agreement=abs(q_general - q_reduced),
        sign=int(np.sign(q_reduced)),
        predicted_sign=predicted_second_variation_sign(n, m, k, lam),
        c_k=ck,
    )


# -- eigenvalue bound -----------------------------------------------------------


@dataclass
class EigenvalueBoundReport:
    bound: float
    quotients: list
    min_quotient: float
    strict_expected: bool
    precondition_residual: float
    passed: bool


def eigenvalue_bound_check(model: ModelSpec, grid: QuadratureGrid) -> EigenvalueBoundReport:
    """Rayleigh quotients of the mean-zero coordinate harmonics against the
    spectral bound 2(n+m) lam, after verifying the curvature lower bound
    Ric_phi >= 2(n+m-1) lam g on a deterministic node subsample."""
    grid.bind(model)
    _require_constant_density(model)
    if model.lam is None:
        raise ModelError("eigenvalue bound needs a proportional model")
    n, m, lam = model.n, model.m, model.lam

    step = max(1, len(grid.points) // _SAMPLE_NODES)
    worst = 0.0
    for point in grid.points[::step][:_SAMPLE_NODES]:
        p = model.structure_at(point, order=2)
        w = weighted_invariants(p)
        gap = w.ric_phi - 2.0 * (n + m - 1.0) * lam * p.g.matrix
        worst = max(worst, float(max(0.0, -np.linalg.eigvalsh(gap).min())))
    if worst > 1e-8:
        raise DomainError(
            f"curvature lower bound fails on the sample (violation {worst:.3e})"
        )

    quotients = [rayleigh_quotient(model, grid, f) for f in coordinate_harmonics(n)]
    bound = 2.0 * (n + m) * lam
    min_q = min(quotients)
    passed = min_q >= bound - _BOUND_TOL
    strict = m > 0
    if strict:
        passed = passed and (min_q > bound + _BOUND_TOL)
    return EigenvalueBoundReport(
        bound=bound,
        quotients=quotients,
        min_quotient=min_q,
        strict_expected=strict,
        precondition_residual=worst,
        passed=passed,
    )
