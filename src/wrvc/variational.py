"""Quadrature over round-sphere models and the variational certificates.

The sphere is covered by two antipodal stereographic charts.  Each chart
carries a polar-form tensor grid: Gauss-Legendre nodes in the radius
(where the partition of unity lives) times an exact-degree angular
product rule (Gauss-Legendre in the polar cosine, uniform in the
azimuth).  The chart overlap is blended by a partition of unity whose
radial profile is a C^11 polynomial smoothstep in log-radius; the two
chart weights sum to the metric measure of the sphere.  Each
Gauss-Legendre rule is computed once per degree (``_gauss_legendre``) and
shared, read-only, by every grid; the radial factors are computed once per
radius and repeated over the directions.

The chart is an array axis: every per-node quantity (f^m, field values,
integrands) is one (2, N) array, one row per chart.  Trial fields are
evaluated on the grid's ``ChartTable``, built on the first field
evaluation.  Values come from the field tree (``value``); the round-metric
gradient norm and Laplace-Beltrami values come from the trial's ambient
quadratic form u = c + b.xi + xi^T C xi (``SphereField.coefficients``,
degree <= 2): with w = b + 2 C xi,
|grad u|_g^2 = |w|^2 - (xi.w)^2 and
Delta_g u = 2 tr C - n b.xi - 2(n+1) xi^T C xi, evaluated on the table's
``xi`` alone, so no quadrature path reads a chart derivative (the flat
chart Laplacian these replaced is gone; ``grad``, ``hess`` and the table's
lazy ``dxi`` remain the tests' oracle).  A trial of degree above 2 raises
there, and so does a constant trial, whose mean-zero projection is
rounding (``_CONSTANT_FRACTION``).
Reductions sum chart 1, then chart 2, each in fixed-size node chunks in
index order, so results are bit-identical from run to run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError, ModelError
from .expr import has_vars
from .fields import ChartTable, SphereField, coordinate_harmonics
from . import rho
from .models import ModelSpec
from .weighted import generalized_binomial

_CHUNK = 8192
_DEFAULT_RESOLUTION = 40
_RADIUS = 3.0        # chart radius where the partition of unity reaches 0
_PROFILE_DEGREE = 11
_BOUND_TOL = 1e-6    # margin of the eigenvalue bound against 2(n+m) lam
# a trial whose mean-zero projection keeps at most this fraction of its
# weighted square integral is constant up to rounding (a constant's
# projection keeps ~1e-32 of it)
_CONSTANT_FRACTION = 1e-24


@lru_cache(maxsize=None)
def _gauss_legendre(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's Gauss-Legendre (nodes, weights) on [-1, 1], computed once per
    degree and returned read-only."""
    rule = legendre.leggauss(degree)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@lru_cache(maxsize=None)
def _step_coeffs():
    # antiderivative coefficients of (1 - t^2)^p and its total mass
    p = _PROFILE_DEGREE
    c = np.zeros(2 * p + 1)
    for j in range(p + 1):
        c[2 * j] = math.comb(p, j) * (-1.0) ** j
    anti = np.concatenate([[0.0], c / np.arange(1, 2 * p + 2)])
    total = np.polynomial.polynomial.polyval(1.0, anti) - \
        np.polynomial.polynomial.polyval(-1.0, anti)
    return anti, total


def smoothstep_down(s):
    """C^p ramp, p = _PROFILE_DEGREE: 1 for s <= -1, 0 for s >= 1, with
    S(s) + S(-s) = 1."""
    anti, total = _step_coeffs()
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


class QuadratureGrid:
    """Two-chart quadrature for integrals over the round n-sphere.

    ``resolution`` is the radial Gauss-Legendre count per chart; the
    angular rule is sized to integrate the low-degree harmonic trials
    exactly, giving ~resolution^n nodes over both charts.  Node weights
    include the partition of unity and the round-metric volume factor,
    so ``sum(weights) = Vol(S^n)`` up to the radial quadrature error.
    Both charts share the node array ``points``; ``table`` is their one
    ``ChartTable``, built on the first field evaluation, so a grid used
    only for ``weight_sum`` never builds it.  Per-node values are (2, N)
    arrays, one row per chart.
    """

    def __init__(self, n: int, resolution: int = _DEFAULT_RESOLUTION):
        if not isinstance(n, numbers.Integral) or n not in (2, 3):
            raise DomainError(f"grids cover sphere dimensions 2 and 3, got {n!r}")
        if not isinstance(resolution, numbers.Integral) or resolution < 4:
            raise DomainError(f"resolution must be an integer >= 4, got {resolution!r}")
        self.n = n
        self.resolution = resolution

        xs, ws = _gauss_legendre(resolution)
        r = 0.5 * _RADIUS * (xs + 1.0)
        wr = 0.5 * _RADIUS * ws

        # the uniform circle rule; on S^2 it is lifted by Gauss-Legendre
        # nodes in the polar cosine
        l_count = max(6, resolution // 4)
        alpha = 2.0 * math.pi * np.arange(2 * l_count) / (2 * l_count)
        dirs = np.stack([np.cos(alpha), np.sin(alpha)], axis=-1)
        wdir = np.full(2 * l_count, 2.0 * math.pi / (2 * l_count))
        if n == 3:
            mu, wmu = _gauss_legendre(l_count)
            sin_theta = np.sqrt(1.0 - mu**2)
            dirs = np.concatenate([(sin_theta[:, None, None] * dirs).reshape(-1, 2),
                                   np.repeat(mu, len(wdir))[:, None]], axis=1)
            wdir = (wmu[:, None] * wdir).ravel()

        # the radial factors on the resolution radii, each repeated over the
        # directions; radii outside the partition's support carry no nodes
        psi = partition_profile(r)
        conf = 4.0 / (1.0 + r**2) ** 2
        keep = psi > 0.0
        r, wr, psi, conf = r[keep], wr[keep], psi[keep], conf[keep]
        count = dirs.shape[0]
        w_geom = (wr[:, None] * wdir[None, :]).ravel()
        self.points = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        self.weights = (w_geom * np.repeat(psi, count) * np.repeat(r ** (n - 1), count)
                        * np.repeat(conf ** (n / 2.0), count))
        self.conf = np.repeat(conf, count)
        self._bound = {}   # id(model) -> GridStructure, which holds the model

    @cached_property
    def table(self) -> ChartTable:
        """Both charts' node table, built on the first field evaluation."""
        return ChartTable(self.points)

    def bind(self, model: ModelSpec) -> "GridStructure":
        """The model's data on this grid, built once per model object."""
        bound = self._bound.get(id(model))
        if bound is None:
            bound = self._bound[id(model)] = GridStructure(model, self)
        return bound

    @property
    def node_count(self) -> int:
        return 2 * len(self.weights)

    def weight_sum(self) -> float:
        return 2.0 * _chunked_dot(self.weights, np.ones_like(self.weights))

    def integrate(self, values) -> float:
        """Sum of w * value over both charts of (2, N) ``values``: chart 1,
        then chart 2, each in fixed chunked order."""
        total = 0.0
        for row in self._node_values(values):
            total += _chunked_dot(self.weights, row)
        return total

    def _node_values(self, values) -> np.ndarray:
        """``values`` as (2, N); another shape would broadcast silently."""
        values = np.asarray(values, dtype=float)
        shape = (2, len(self.weights))
        if values.shape != shape:
            raise DomainError(f"per-node grid values need shape {shape}, "
                              f"got {values.shape}")
        return values


def _chunked_dot(w: np.ndarray, v: np.ndarray) -> float:
    total = 0.0
    for start in range(0, len(w), _CHUNK):
        total += float(np.dot(w[start:start + _CHUNK], v[start:start + _CHUNK]))
    return total


# -- model/grid coupling -------------------------------------------------------


class GridStructure:
    """One model bound to one grid (``QuadratureGrid.bind``): the round-metric
    check on every node of both charts, f^m as a (2, N) array (chart 2's
    nodes are read at their chart-1 coordinates X/|X|^2), the weighted
    volume, and the series scales of each order, read once from one lazily
    built expansion at the model's default point and order.
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

        def accept_round(rows, slots, nodes, conf):
            # g_ij / conf against delta_ij, once per distinct component on or
            # off the diagonal, the first failure named in row-major order:
            # conf falls to ~1e-10 at chart 2's far nodes, so the tolerance
            # is relative
            passed = {}
            for (i, j), d in np.ndenumerate(slots):
                if (d, i == j) not in passed:
                    passed[d, i == j] = (np.abs(rows[d] / conf - float(i == j)) <= 1e-10).all()
                if not passed[d, i == j]:
                    raise ModelError(
                        "grid quadrature needs the round stereographic metric; "
                        f"component g_{i + 1}{j + 1} of {model.name!r} differs"
                    )

        self.model = model
        # chart 2's nodes X/|X|^2, where the conformal factor 4/(1+|y|^2)^2 is
        # 4 r^4/(1+r^2)^2 with r^2 = |X|^2: summing the columns of X * X in
        # order gives (X * X).sum(axis=1) bit for bit, without its per-row cost
        X = grid.points
        r2 = sum((X * X).T)
        self.fm = np.array([
            model._weight_on(nodes, partial(accept_round, conf=conf), chart)
            for chart, nodes, conf in ((1, X, grid.conf),
                                       (2, X / r2[:, None], 4.0 * r2**2 / (1.0 + r2) ** 2))])
        self.wvol = grid.integrate(self.fm)
        self._scales = {}

    @property
    def lam(self) -> float:
        """The model's proportionality constant; grid operations need it."""
        if self.model.lam is None:
            raise ModelError(
                f"grid operations need a proportional model; model "
                f"{self.model.name!r} has no proportionality constant"
            )
        return self.model.lam

    def vk(self, k: int) -> float:
        """v_k, the same on every node of both charts."""
        return self.series_scales(k)[0]

    @cached_property
    def _expansion(self) -> rho.AmbientExpansion:
        self.lam   # raises unless the expansion is the lam-scaled one
        return self.model.ambient_at(self.model.default_point)

    def series_scales(self, k: int):
        """(v_k, l_k) at the reference point, extracted through the rho-series
        path: v_k scalar and the scale l_k with (L_k)^{ij} = l_k g^{ij}.
        Each k is read once, from the default-order expansion, or from an
        order-k one for a k above its order (above the cap, that raises)."""
        if k not in self._scales:
            model, a = self.model, self._expansion
            if k > a.K:
                a = model.ambient_at(model.default_point, K=k)
            # read through the module, so spans wrapped around rho's public names
            # see them; L_k first, as it names a k outside 1..K or above the cap
            L = rho.l_operator(a, model.m, k)
            self._scales[k] = (float(rho.volume_coefficients(a, model.m)[k]),
                               float(np.trace(L @ a.g) / model.n))
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
    return grid.integrate(bound.vk(k) * bound.fm)


def project_mean_zero(model: ModelSpec, grid: QuadratureGrid, field: SphereField):
    """Subtract the weighted mean; returns the (2, N) values."""
    return _mean_zero(grid, grid.bind(model), field.value(grid.table))[0]


def _mean_zero(grid: QuadratureGrid, bound: GridStructure, values) -> tuple:
    """(values minus their weighted mean, the mean)."""
    mean = grid.integrate(values * bound.fm) / bound.wvol
    return values - mean, mean


def first_variation(model: ModelSpec, grid: QuadratureGrid, k: int,
                    omega_values) -> float:
    """(n+m-2k) * integral of v_k omega f^m, for the (2, N) values
    ``omega_values`` of omega (``field.value(grid.table)`` or
    ``project_mean_zero``)."""
    omega_values = grid._node_values(omega_values)
    bound = grid.bind(model)
    vk = bound.vk(k)
    factor = model.n + model.m - 2.0 * k
    return factor * grid.integrate(vk * bound.fm * omega_values)


def _ambient_form(field: SphereField, table: ChartTable) -> tuple:
    """The trial reduced once to u = c + b.xi + xi^T C xi and evaluated on
    the table's nodes: (tr C, b.xi, xi^T C xi, |w|^2) with w = b + 2 C xi,
    the last three flat over both charts (2N,).  C xi is formed one row at
    a time, so no (n+1, 2N) temporary is allocated, and with numpy's own
    loops, not BLAS, so each node's entries do not depend on the others.
    A zero row of C leaves w_a = b_a, a constant, and is skipped: a
    coordinate trial reads no row of C xi, a product of two coordinates
    two."""
    _, b, C = field.coefficients(table.n)
    xi = table.xi.reshape(table.n + 1, -1)
    bxi = np.einsum("a,ak->k", b, xi)
    active = C.any(axis=1)
    xCx = np.zeros_like(bxi)
    w2 = np.full_like(bxi, np.sum(b[~active] ** 2))
    for a in np.flatnonzero(active):
        row = np.einsum("b,bk->k", C[a], xi)   # (C xi)_a
        xCx += xi[a] * row
        row *= 2.0
        row += b[a]                            # w_a
        w2 += row * row
    return np.trace(C), bxi, xCx, w2


def laplace_beltrami_values(field: SphereField, table: ChartTable) -> np.ndarray:
    """(2, N) Laplacian of the field in the round metric, from the ambient
    form: Delta_g u = 2 tr C - n b.xi - 2(n+1) xi^T C xi."""
    n = table.n
    trace, bxi, xCx, _ = _ambient_form(field, table)
    lb = 2.0 * trace - n * bxi - 2.0 * (n + 1) * xCx
    return lb.reshape(table.xi.shape[1:])


def delta_vk_identity_check(model: ModelSpec, grid: QuadratureGrid, k: int,
                            lb_values) -> float:
    """|integral of the divergence part of the v_k variation|.

    At a proportional structure the second-order term reduces to
    l_k * Laplacian(omega), whose weighted integral must vanish; the
    returned magnitude is pure quadrature error.  ``lb_values`` holds the
    (2, N) Laplace-Beltrami values of omega
    (``laplace_beltrami_values(omega, grid.table)``).
    """
    lb_values = grid._node_values(lb_values)
    bound = grid.bind(model)
    _require_constant_density(model)
    _, lk = bound.series_scales(k)
    return abs(grid.integrate(lk * lb_values * bound.fm))


# -- second variation -----------------------------------------------------------


@dataclass
class FunctionalReport:
    """Second variation of F_k for one (model, k, trial): both displays,
    their agreement, and the observed and predicted signs."""

    Q_general: float
    Q_reduced: float
    path_agreement: float
    sign: int
    predicted_sign: int


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


def _mass_and_energy(model: ModelSpec, grid: QuadratureGrid,
                     field: SphereField) -> tuple:
    """Weighted mass of the trial's mean-zero projection and its weighted
    Dirichlet energy, with |grad u|_g^2 = |w|^2 - (xi.w)^2 from the ambient
    form (xi.w = b.xi + 2 xi^T C xi).  A projection whose mass is at most
    _CONSTANT_FRACTION of the weighted integral of u^2, which is
    mass + mean^2 * wvol, is rounding left by a constant trial, and raises."""
    bound, table = grid.bind(model), grid.table
    fm = bound.fm
    projected, mean = _mean_zero(grid, bound, field.value(table))
    mass = grid.integrate(projected**2 * fm)
    square = mass + mean * mean * bound.wvol
    if not mass > _CONSTANT_FRACTION * square:
        raise DomainError(
            f"the trial is constant on the sphere: its mean-zero projection "
            f"has weighted mass {mass:.3e} against {square:.3e} for the trial"
        )
    _, bxi, xCx, w2 = _ambient_form(field, table)
    grad2 = w2 - (bxi + 2.0 * xCx) ** 2
    energy = grid.integrate(grad2.reshape(table.xi.shape[1:]) * fm)
    return mass, energy


def rayleigh_quotient(model: ModelSpec, grid: QuadratureGrid,
                      field: SphereField) -> float:
    """Dirichlet energy over mass for the mean-zero projection of the trial."""
    grid.bind(model)
    _require_constant_density(model)
    mass, energy = _mass_and_energy(model, grid, field)
    return energy / mass


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
    n, m, lam = model.n, model.m, bound.lam
    if lam == 0.0:
        raise ModelError("second variation needs a nonzero proportionality "
                         "constant")
    nm = n + m

    omega2, dirichlet = _mass_and_energy(model, grid, field)

    vk, lk = bound.series_scales(k)
    q_general = -(nm - 2.0 * k) * (2.0 * k * vk * omega2 + lk * dirichlet)

    ck = c_k_constant(n, m, k)
    q_reduced = ck * lam ** (k - 1) * (dirichlet - 2.0 * nm * lam * omega2)

    return FunctionalReport(
        Q_general=q_general,
        Q_reduced=q_reduced,
        path_agreement=abs(q_general - q_reduced),
        sign=int(np.sign(q_reduced)),
        predicted_sign=predicted_second_variation_sign(n, m, k, lam),
    )


# -- eigenvalue bound -----------------------------------------------------------


@dataclass
class EigenvalueBoundReport:
    bound: float
    quotients: list
    min_quotient: float
    strict_expected: bool
    passed: bool


def eigenvalue_bound_check(model: ModelSpec, grid: QuadratureGrid) -> EigenvalueBoundReport:
    """Rayleigh quotients of the mean-zero coordinate harmonics against the
    spectral bound 2(n+m) lam, after verifying the curvature lower bound
    Ric_phi >= 2(n+m-1) lam g on every node.

    ``grid.bind`` has checked the round metric g = conf * delta on every
    node and the density is constant, so Ric_phi = (n-1) g and the
    gap Ric_phi - 2(n+m-1) lam g is ((n-1) - 2(n+m-1) lam) conf * I."""
    structure = grid.bind(model)
    _require_constant_density(model)
    n, m, lam = model.n, model.m, structure.lam

    worst = max(0.0, 2.0 * (n + m - 1.0) * lam - (n - 1.0)) * float(grid.conf.max())
    if worst > 1e-8:
        raise DomainError(
            f"curvature lower bound fails on the grid (violation {worst:.3e})"
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
        passed=passed,
    )
