"""Classical Riemannian quantities at a chart point from jet-valued metrics.

Curvature is evaluated exactly from the metric jets: Christoffel symbols
are kept as jet coefficients (one order below the metric) so their
derivatives at the point are exact coefficients rather than finite
differences.  Curvature and covariant Hessians read only Gamma and its
first derivatives at the point, so they work on the metric's 2-jet
(``MetricAtPoint.two_jet``, a prefix slice of ``G`` in the graded layout).

The metric is held as a coefficient array ``G`` of shape (n, n, ncoef)
(see ``wrvc.jets``), and the inverse, determinant, Christoffel symbols and
conformal rescale are jet-matrix products on it (``jets.product_coeffs``,
gathered product triples): the inverse is the Neumann series
``sum_k (-G0^{-1} N)^k G0^{-1}`` in the part ``N`` of ``G`` with zero
constant term, which is nilpotent in the truncated ring.

Sign convention: ``R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
+ Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}`` with
``Ric_{bd} = R^a_{bad}``, so the unit round sphere has ``Ric = (n-1) g``
and ``R = n(n-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError, OrderError
from .jets import (
    Jet,
    compose_coeffs,
    derivative_coeffs,
    gradient_index,
    hessian_index,
    jet_order,
    n_coeffs,
    product_coeffs,
    _univariate_coeffs,
)


def _inverse_coeffs(G: np.ndarray, dim: int, order: int, G0inv: np.ndarray) -> np.ndarray:
    """Inverse of the jet matrix G (n, n, ncoef) by the Neumann series
    sum_{k <= order} X^k G0^{-1} with X = -G0^{-1} N, evaluated by Horner;
    ``G0inv`` is the inverse of the constant term G0."""
    X = -np.einsum("ik,kjc->ijc", G0inv, G)
    X[:, :, 0] = 0.0
    Y0 = np.zeros_like(X)
    Y0[:, :, 0] = G0inv
    Y = Y0
    for _ in range(order):
        Y = Y0 + product_coeffs(X, Y, dim, order, matmul=True)
    return Y


def _det_coeffs(G: np.ndarray, dim: int, order: int, G0inv: np.ndarray) -> np.ndarray:
    """det G = det(G0) exp(tr log(I + X)), X = G0^{-1} N nilpotent."""
    X = np.einsum("ik,kjc->ijc", G0inv, G)
    X[:, :, 0] = 0.0
    power = X
    log_det = np.zeros(G.shape[-1])
    for k in range(1, order + 1):
        if k > 1:
            power = product_coeffs(X, power, dim, order, matmul=True)
        log_det += (-1.0) ** (k + 1) / k * np.einsum("qqc->c", power)
    exp_coeffs = _univariate_coeffs("exp", 0.0, order, None)
    return np.linalg.det(G[:, :, 0]) * compose_coeffs(log_det, exp_coeffs, dim, order)


class MetricAtPoint:
    """A Riemannian metric's jets at one chart point.

    ``G`` is the (n, n, ncoef) coefficient array of the metric jets,
    symmetric coefficient-wise, with a positive-definite constant-term
    matrix; the jet order is the one with ``ncoef = n_coeffs(n, order)``.
    The inverse of the constant term is computed once and shared with the
    cached 2-jet view ``two_jet``.
    """

    def __init__(self, G: np.ndarray, point):
        G = np.asarray(G, dtype=float)
        if G.ndim != 3 or G.shape[0] != G.shape[1]:
            raise DimensionMismatch(
                f"metric coefficients need shape (n, n, ncoef), got {G.shape}"
            )
        n = G.shape[0]
        order = jet_order(n, G.shape[2])
        transposed = G.transpose(1, 0, 2)
        if not np.array_equal(G, transposed):
            symmetric = np.isclose(G, transposed, atol=1e-12).all(axis=2)
            if not symmetric.all():
                i, j = np.argwhere(~symmetric)[0]
                raise DomainError(f"metric jets not symmetric at ({i},{j})")
        try:
            np.linalg.cholesky(G[:, :, 0])
        except np.linalg.LinAlgError:
            raise DomainError("constant-term metric is not positive definite")
        self.n = n
        self.G = G
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self._ginv0 = None
        self._gamma = None
        self._two_jet = None

    @property
    def matrix(self) -> np.ndarray:
        """Constant-term metric matrix g_ij at the point."""
        return self.G[:, :, 0].copy()

    def _inverse0(self) -> np.ndarray:
        """The cached inverse of the constant-term matrix (not a copy)."""
        if self._ginv0 is None:
            self._ginv0 = np.linalg.inv(self.G[:, :, 0])
        return self._ginv0

    @property
    def inverse_matrix(self) -> np.ndarray:
        return self._inverse0().copy()

    @property
    def two_jet(self) -> "MetricAtPoint":
        """The metric truncated to order 2, cached: a prefix slice of ``G``
        that shares the constant-term inverse and is not re-validated.  A
        metric of order <= 2 is its own 2-jet."""
        if self._two_jet is None:
            if self.order <= 2:
                self._two_jet = self
            else:
                view = object.__new__(MetricAtPoint)
                view.n, view.point, view.order = self.n, self.point, 2
                view.G = self.G[:, :, :n_coeffs(self.n, 2)]
                view._ginv0 = self._inverse0()
                view._gamma = None
                view._two_jet = self._two_jet = view
        return self._two_jet

    def det_jet(self) -> Jet:
        return Jet._unchecked(
            self.n, self.order, _det_coeffs(self.G, self.n, self.order, self._inverse0())
        )

    def rescale(self, factor: Jet) -> "MetricAtPoint":
        """Pointwise conformal rescale g -> factor * g (factor a positive jet)."""
        if factor.dim != self.n:
            raise DimensionMismatch(
                f"jet dims differ: {self.n} vs {factor.dim}"
            )
        order = min(self.order, factor.order)
        nc = n_coeffs(self.n, order)
        G = product_coeffs(factor.coeffs[:nc], self.G[:, :, :nc], self.n, order)
        return MetricAtPoint(G, self.point)


@dataclass
class CurvatureBundle:
    """Pointwise curvature tensors at the point."""

    riem: np.ndarray      # R_{ijkl}, antisymmetric pairs (ij) and (kl)
    ric: np.ndarray       # Ric_ij
    scalar: float


def _christoffel_coeffs(metric: MetricAtPoint) -> np.ndarray:
    """Gamma^k_{ij} as a (n, n, n, ncoef) array at the metric order - 1."""
    n, order = metric.n, metric.order - 1
    nc = n_coeffs(n, order)
    ginv = _inverse_coeffs(metric.G[:, :, :nc], n, order, metric._inverse0())
    dg = derivative_coeffs(metric.G, n, metric.order)  # dg[l, i, j] = d_l g_ij
    # first-kind symbols [ij, l] = d_i g_jl + d_j g_il - d_l g_ij, indexed (l, i, j)
    first = np.einsum("ijlc->lijc", dg) + np.einsum("jilc->lijc", dg) - dg
    gamma = 0.5 * product_coeffs(ginv, first.reshape(n, n * n, nc), n, order, matmul=True)
    gamma = gamma.reshape(n, n, n, nc)
    rows, cols = _upper_pairs(n)
    gamma[:, cols, rows] = gamma[:, rows, cols]   # exactly symmetric in (i, j)
    return gamma


@lru_cache(maxsize=None)
def _upper_pairs(n: int):
    return np.triu_indices(n, 1)


# christoffel and curvature keep their names: perfbench/tracing.py times them
def christoffel(metric: MetricAtPoint) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij}, cached on the metric, as a
    (n, n, n, ncoef) coefficient array at the metric order - 1."""
    if metric._gamma is None:
        if metric.order < 1:
            raise OrderError("christoffel needs metric jets of order >= 1")
        metric._gamma = _christoffel_coeffs(metric)
    return metric._gamma


def curvature(metric: MetricAtPoint) -> CurvatureBundle:
    """Riemann, Ricci and scalar curvature values at the point, from the
    Christoffel symbols of the metric's 2-jet."""
    if metric.order < 2:
        raise OrderError("curvature needs metric jets of order >= 2")
    metric = metric.two_jet
    coeffs = christoffel(metric)
    g0 = metric.G[:, :, 0]
    ginv0 = metric._inverse0()
    gv = coeffs[..., 0]
    # dgv[l, k, i, j] = d_l Gamma^k_{ij}
    dgv = np.moveaxis(coeffs[..., gradient_index(metric.n)], -1, 0)

    # R^a_{bcd} with the antisymmetric derivative pair in (c, d)
    up = (
        np.einsum("cadb->abcd", dgv)
        - np.einsum("dacb->abcd", dgv)
        + np.einsum("ace,edb->abcd", gv, gv)
        - np.einsum("ade,ecb->abcd", gv, gv)
    )
    riem = np.einsum("ae,ebcd->abcd", g0, up)
    ric = np.einsum("abad->bd", up)
    scalar = float(np.einsum("bd,bd->", ginv0, ric))
    return CurvatureBundle(riem=riem, ric=ric, scalar=scalar)


def hessian(u: Jet, metric: MetricAtPoint) -> np.ndarray:
    """Covariant Hessian (nabla^2 u)_ij at the point (Gamma from the
    metric's 2-jet)."""
    if u.order < 2:
        raise OrderError("hessian needs a jet of order >= 2")
    du = gradient(u, metric.n)
    slots, factors = hessian_index(metric.n)
    gamma0 = christoffel(metric.two_jet)[..., 0]
    return u.coeffs[slots] * factors - np.einsum("kij,k->ij", gamma0, du)


def gradient(u: Jet, n: int) -> np.ndarray:
    if u.dim != n:
        raise DimensionMismatch(f"jet of dimension {u.dim} in a chart of dimension {n}")
    if u.order < 1:
        raise OrderError("gradient needs a jet of order >= 1")
    return u.coeffs[gradient_index(n)]


def laplacian(u: Jet, metric: MetricAtPoint) -> float:
    return float(np.einsum("ij,ij->", metric._inverse0(), hessian(u, metric)))


def grad_norm2(u: Jet, metric: MetricAtPoint) -> float:
    du = gradient(u, metric.n)
    return float(du @ metric._inverse0() @ du)


def grad_inner(u: Jet, v: Jet, metric: MetricAtPoint) -> float:
    du = gradient(u, metric.n)
    dv = gradient(v, metric.n)
    return float(du @ metric._inverse0() @ dv)


def weighted_laplacian(u: Jet, phi: Jet, metric: MetricAtPoint) -> float:
    """Drift Laplacian: Delta u - <grad phi, grad u>_g."""
    return laplacian(u, metric) - grad_inner(phi, u, metric)
