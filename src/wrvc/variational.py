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
radius and repeated over the directions.  Everything else a grid reads
that depends on (n, resolution) alone, the nodes, weights and conformal
factors of both charts and the chart table's arrays, is one node set,
built once per (n, resolution) and shared read-only by every grid of that
size (``_node_set``, which keeps the eight most recently used).  A grid
owns only its model bindings and its table's trial slot, so dropping a
grid frees those and no node array.

The chart is an array axis: every per-node quantity (f^m, field values,
integrands) is one (2, N) array, one row per chart.  Trial fields are
evaluated on the grid's ``ChartTable``, made on the first field
evaluation, by ``ChartTable.trial``: the trial's ambient quadratic form
u = c + b.xi + xi^T C xi (``SphereField.coefficients``, degree <= 2),
evaluated in one pass over the table's ``xi``, gives the values, and with
w = b + 2 C xi, |grad u|_g^2 = |w|^2 - (xi.w)^2 and
Delta_g u = 2 tr C - n b.xi - 2(n+1) xi^T C xi, so no quadrature path
reads the field tree or a chart derivative (``value``, ``grad``, ``hess``
and the table's lazy ``dxi`` remain the tests' oracle).  The table keeps
the last trial it evaluated, so the mean-zero projection, the mass, the
energy and the Laplace-Beltrami values of one trial share one evaluation.
A trial of degree above 2 raises there, and so does a constant trial,
whose mean-zero projection is rounding (``_CONSTANT_FRACTION``).
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
from .fields import ChartNodes, ChartTable, SphereField, coordinate_harmonics
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


class _NodeSet:
    """The arrays of every grid of one (n, resolution), built once
    (``_node_set``) and read-only: the nodes ``points`` (N, n) both charts
    share, their ``weights`` and round-metric factor ``conf``, chart 2's
    nodes ``points2`` = X/|X|^2 at their chart-1 coordinates with their
    factor ``conf2`` = 4 r^4/(1+r^2)^2, and the chart table's arrays
    ``chart``, built on the first field evaluation of any grid of the
    set."""

    def __init__(self, n: int, resolution: int):
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
        self.points = X = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        self.weights = (w_geom * np.repeat(psi, count) * np.repeat(r ** (n - 1), count)
                        * np.repeat(conf ** (n / 2.0), count))
        self.conf = np.repeat(conf, count)
        # chart 2's factor 4/(1+|y|^2)^2 at y = X/|X|^2 is 4 r^4/(1+r^2)^2
        # with r^2 = |X|^2: summing the columns of X * X in order gives
        # (X * X).sum(axis=1) bit for bit, without its per-row cost
        r2 = sum((X * X).T)
        self.points2 = X / r2[:, None]
        self.conf2 = 4.0 * r2**2 / (1.0 + r2) ** 2
        for array in (self.points, self.weights, self.conf, self.points2, self.conf2):
            array.flags.writeable = False

    @cached_property
    def chart(self) -> ChartNodes:
        return ChartNodes(self.points)


@lru_cache(maxsize=8)
def _node_set(n: int, resolution: int) -> _NodeSet:
    """The node set of (n, resolution), shared by every grid of that size;
    the eight most recently used are kept."""
    return _NodeSet(n, resolution)


class QuadratureGrid:
    """Two-chart quadrature for integrals over the round n-sphere.

    ``resolution`` is the radial Gauss-Legendre count per chart; the
    angular rule is sized to integrate the low-degree harmonic trials
    exactly, giving ~resolution^n nodes over both charts.  Node weights
    include the partition of unity and the round-metric volume factor,
    so ``sum(weights) = Vol(S^n)`` up to the radial quadrature error.
    Both charts share the node array ``points``.  ``points``, ``weights``
    and ``conf`` are the read-only arrays of the node set of
    (n, resolution), built once and shared by every grid of that size
    (``_node_set``).  A grid owns only its model bindings (``bind``) and
    ``table``, its ``ChartTable`` on the node set's shared chart arrays
    with its own trial slot, made on the first field evaluation, so a grid
    used only for ``weight_sum`` builds no chart arrays.  Per-node values
    are (2, N) arrays, one row per chart.
    """

    def __init__(self, n: int, resolution: int = _DEFAULT_RESOLUTION):
        if not isinstance(n, numbers.Integral) or n not in (2, 3):
            raise DomainError(f"grids cover sphere dimensions 2 and 3, got {n!r}")
        if not isinstance(resolution, numbers.Integral) or resolution < 4:
            raise DomainError(f"resolution must be an integer >= 4, got {resolution!r}")
        self.n = n
        self.resolution = resolution
        self._nodes = nodes = _node_set(n, resolution)
        self.points, self.weights, self.conf = nodes.points, nodes.weights, nodes.conf
        self._bound = {}   # id(model) -> GridStructure, which holds the model

    @cached_property
    def table(self) -> ChartTable:
        """Both charts' table on the shared node arrays, with this grid's
        trial slot; made on the first field evaluation."""
        return ChartTable(self._nodes.chart)

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
    nodes are read at their chart-1 coordinates X/|X|^2, from the grid's
    node set), the weighted volume, and v_k and the series scales of each
    order, read on each request from one lazily built expansion at the
    model's default point and order.  The model's expansion
    g_rho = (1 + lam rho)^2 g, f_rho = (1 + lam rho) f scales g and f by
    functions of rho alone, so for a constant density v_k = C(n+m, k) lam^k
    is one constant for every node; the expansion raises for a density
    that varies.  It keeps f^m, never the grid, so the grid's memo of
    structures forms no reference cycle."""

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
        nodes = grid._nodes
        self.fm = np.array([
            model._weight_on(points, partial(accept_round, conf=conf), chart)
            for chart, points, conf in ((1, nodes.points, nodes.conf),
                                        (2, nodes.points2, nodes.conf2))])
        self.wvol = grid.integrate(self.fm)

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
        """v_k, the same on every node of both charts, read alone from the
        series of ``_expansion_to(k)``."""
        return float(rho.volume_coefficients(self._expansion_to(k), self.model.m)[k])

    @cached_property
    def _expansion(self) -> rho.AmbientExpansion:
        # raises unless the expansion is the lam-scaled one, read at the
        # default point for every node: that needs a constant density
        self.lam
        _require_constant_density(self.model)
        return self.model.ambient_at(self.model.default_point)

    def _expansion_to(self, k) -> rho.AmbientExpansion:
        """The default-order expansion, which keeps every series it
        derives, or an order-k one for a k above its order (above the cap,
        that raises)."""
        model, a = self.model, self._expansion
        if isinstance(k, numbers.Integral) and k > a.K:
            a = model.ambient_at(model.default_point, K=k)
        return a

    def series_scales(self, k: int):
        """(v_k, l_k) at the reference point, extracted through the rho-series
        path: v_k scalar and the scale l_k with (L_k)^{ij} = l_k g^{ij},
        both read from ``_expansion_to(k)``, v_k first."""
        model, a = self.model, self._expansion_to(k)
        # read through the module, so spans wrapped around rho's public names
        # see them
        vk = float(rho.volume_coefficients(a, model.m)[k])
        return vk, float(np.trace(rho.l_operator(a, model.m, k) @ a.g) / model.n)


def _require_constant_density(model: ModelSpec):
    """A ``ModelError`` unless the model's compiled density is constant."""
    program = model._program
    if program.varies[program.outputs[-1]]:
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
    bound = grid.bind(model)
    return _mean_zero(grid, bound, grid.table.trial(field).value)[0]


def _mean_zero(grid: QuadratureGrid, bound: GridStructure, values) -> tuple:
    """(values minus their weighted mean, the mean)."""
    mean = grid.integrate(values * bound.fm) / bound.wvol
    return values - mean, mean


def first_variation(model: ModelSpec, grid: QuadratureGrid, k: int,
                    omega_values) -> float:
    """(n+m-2k) * integral of v_k omega f^m, for the (2, N) values
    ``omega_values`` of omega (``grid.table.trial(field).value`` or
    ``project_mean_zero``)."""
    omega_values = grid._node_values(omega_values)
    bound = grid.bind(model)
    vk = bound.vk(k)
    factor = model.n + model.m - 2.0 * k
    return factor * grid.integrate(vk * bound.fm * omega_values)


def laplace_beltrami_values(field: SphereField, table: ChartTable) -> np.ndarray:
    """(2, N) Laplacian of the field in the round metric, read-only, from
    the ambient form: Delta_g u = 2 tr C - n b.xi - 2(n+1) xi^T C xi
    (``ChartTable.trial``)."""
    return table.trial(field).laplacian


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
    Dirichlet energy, with |grad u|_g^2 = |w|^2 - (xi.w)^2, both read from
    the trial's one evaluation (``ChartTable.trial``).  A projection whose
    mass is at most _CONSTANT_FRACTION of the weighted integral of u^2,
    which is mass + mean^2 * wvol, is rounding left by a constant trial,
    and raises."""
    bound = grid.bind(model)
    fm, trial = bound.fm, grid.table.trial(field)
    projected, mean = _mean_zero(grid, bound, trial.value)
    mass = grid.integrate(projected**2 * fm)
    square = mass + mean * mean * bound.wvol
    if not mass > _CONSTANT_FRACTION * square:
        raise DomainError(
            f"the trial is constant on the sphere: its mean-zero projection "
            f"has weighted mass {mass:.3e} against {square:.3e} for the trial"
        )
    energy = grid.integrate(trial.grad2 * fm)
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
    n, m, lam = model.n, model.m, bound.lam
    if lam == 0.0:
        raise ModelError("second variation needs a nonzero proportionality "
                         "constant")
    nm = n + m

    vk, lk = bound.series_scales(k)   # the model's checks before the trial's
    omega2, dirichlet = _mass_and_energy(model, grid, field)
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
