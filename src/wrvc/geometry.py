"""Classical Riemannian quantities at a chart point from jet-valued metrics.

Curvature is evaluated exactly from the metric jets: Christoffel and
Riemann tensors are jets in ``dim >= n`` variables, differentiated along
the first n (``christoffel_coeffs``, ``riemann_coeffs``), so derivatives
at the point are exact coefficients.  Curvature and Hessians read Gamma of
the metric's 2-jet (``christoffel``, a prefix slice of ``G``), and
``curvature`` is the order-0 Riemann jet.

The metric is held as a coefficient array ``G`` of shape (n, n, ncoef)
(see ``wrvc.jets``), or (..., n, n, ncoef) for a stack of metrics at one
point, and the inverse, determinant, Christoffel and Riemann tensors and
conformal rescale are contractions of jet arrays (``jets.contract_coeffs``,
gathered product triples): the inverse is the Neumann series
``sum_k (-G0^{-1} N)^k G0^{-1}`` in the part ``N`` of ``G`` with zero
constant term, which is nilpotent in the truncated ring.  Everything but
the determinant takes the leading batch axes of a stack: one call
evaluates every metric of it, each row with the arithmetic it has alone
(the same einsum subscripts with ``...``, per-row sums), and a single
metric is the batch shape ().  The inverse, Christoffel and Riemann
kernels keep an object dtype (exact on ``Fraction`` metrics); the
determinant is float.

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
    compose_coeffs,
    contract_coeffs,
    derivative_coeffs,
    gradient_index,
    hessian_index,
    jet_order,
    n_coeffs,
    _univariate_coeffs,
)


def _inverse_coeffs(G: np.ndarray, dim: int, order: int, G0inv: np.ndarray) -> np.ndarray:
    """Inverses of the jet matrices G (..., n, n, ncoef) by the Neumann series
    sum_{k <= order} X^k G0^{-1} with X = -G0^{-1} N, evaluated by Horner;
    ``G0inv`` (..., n, n) holds the inverses of the constant terms G0."""
    X = -np.einsum("...ik,...kjc->...ijc", G0inv, G)
    X[..., 0] = 0
    Y0 = np.zeros_like(X)
    Y0[..., 0] = G0inv
    Y = Y0
    for _ in range(order):
        Y = Y0 + contract_coeffs("...ik,...kj->...ij", X, Y, dim, order)
    return Y


def _det_coeffs(G: np.ndarray, dim: int, order: int, G0inv: np.ndarray) -> np.ndarray:
    """det G = det(G0) exp(tr log(I + X)), X = G0^{-1} N nilpotent."""
    X = np.einsum("ik,kjc->ijc", G0inv, G)
    X[:, :, 0] = 0.0
    power = X
    log_det = np.zeros(G.shape[-1])
    for k in range(1, order + 1):
        if k > 1:
            power = contract_coeffs("...ik,...kj->...ij", X, power, dim, order)
        log_det += (-1.0) ** (k + 1) / k * np.einsum("qqc->c", power)
    exp_coeffs = _univariate_coeffs("exp", 0.0, order, None)
    return np.linalg.det(G[:, :, 0]) * compose_coeffs(log_det, exp_coeffs, dim, order)


def stack_note(index) -> str:
    """The words that name structure ``index`` of a stack in an error
    message: nothing for a single structure (``index == ()``)."""
    index = tuple(int(i) for i in index)
    if not index:
        return ""
    return f" in structure {index[0] if len(index) == 1 else index} of the stack"


def _require_positive_definite(g0: np.ndarray):
    """A ``DomainError`` naming the first matrix of g0 (..., n, n) that has
    no Cholesky factor."""
    try:
        np.linalg.cholesky(g0)
    except np.linalg.LinAlgError:
        for where in np.ndindex(g0.shape[:-2]):
            try:
                np.linalg.cholesky(g0[where])
            except np.linalg.LinAlgError:
                raise DomainError("constant-term metric is not positive definite"
                                  + stack_note(where)) from None


def _jet_coeffs(u, n: int, least: int, what: str) -> np.ndarray:
    """Scalar jets in ``n`` variables given as a float array (..., ncoef),
    checked to be of order >= ``least``; a 0-d value has no coefficient
    axis."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        raise DimensionMismatch(f"{what} needs a jet coefficient array (..., ncoef), "
                                f"not the scalar {float(u)!r}")
    if jet_order(n, u.shape[-1]) < least:
        raise OrderError(f"{what} needs a jet of order >= {least}")
    return u


class MetricAtPoint:
    """A Riemannian metric's jets at one chart point, or a stack of them.

    ``G`` is the (..., n, n, ncoef) coefficient array of the metric jets.
    Leading batch axes, if any, index a stack of metrics at one chart
    point, and every function below acts on the whole stack at once, each
    row with the arithmetic of that metric alone; a single metric is the
    batch shape ().  Each metric is finite and symmetric coefficient-wise,
    with a positive-definite constant-term matrix (a failure names the
    metric's index in the stack); the jet order is the one with
    ``ncoef = n_coeffs(n, order)``.  The inverse of the constant term and
    ``christoffel`` are cached; neither refers back to the metric.
    """

    def __init__(self, G: np.ndarray, point):
        G = np.asarray(G, dtype=float)
        if G.ndim < 3 or G.shape[-3] != G.shape[-2]:
            raise DimensionMismatch(
                f"metric coefficients need shape (..., n, n, ncoef), got {G.shape}"
            )
        n = G.shape[-2]
        order = jet_order(n, G.shape[-1])
        if not np.isfinite(G).all():
            *where, i, j, _ = np.argwhere(~np.isfinite(G))[0]
            raise DomainError(f"metric jets must be finite at ({i},{j}){stack_note(where)}")
        transposed = G.swapaxes(-3, -2)
        if not np.array_equal(G, transposed):
            symmetric = np.isclose(G, transposed, atol=1e-12).all(axis=-1)
            if not symmetric.all():
                *where, i, j = np.argwhere(~symmetric)[0]
                raise DomainError(f"metric jets not symmetric at ({i},{j}){stack_note(where)}")
        _require_positive_definite(G[..., 0])
        self.n = n
        self.G = G
        self.point = np.asarray(point, dtype=float)
        self.order = order
        self._ginv0 = None
        self._gamma = None

    @property
    def matrix(self) -> np.ndarray:
        """Constant-term metric matrix g_ij at the point."""
        return self.G[..., 0].copy()

    def _inverse0(self) -> np.ndarray:
        """The cached inverse of the constant-term matrix (not a copy)."""
        if self._ginv0 is None:
            self._ginv0 = np.linalg.inv(self.G[..., 0])
        return self._ginv0

    @property
    def inverse_matrix(self) -> np.ndarray:
        return self._inverse0().copy()

    def det_coeffs(self) -> np.ndarray:
        """det g as jet coefficients (ncoef,) (a single metric only)."""
        return _det_coeffs(self.G, self.n, self.order, self._inverse0())

    def rescale(self, factor) -> "MetricAtPoint":
        """Pointwise conformal rescale g -> factor * g, for positive jets
        ``factor`` (..., ncoef): one (ncoef,) factor, or a stack, one metric
        per row, broadcast against the metric's own batch axes."""
        factor = _jet_coeffs(factor, self.n, 0, "rescale")
        order = min(self.order, jet_order(self.n, factor.shape[-1]))
        nc = n_coeffs(self.n, order)
        G = contract_coeffs("...,...ij->...ij", factor[..., :nc], self.G[..., :nc], self.n, order)
        return MetricAtPoint(G, self.point)


@dataclass
class CurvatureBundle:
    """Pointwise curvature tensors at the point, with the metric's batch axes
    leading."""

    riem: np.ndarray      # R_{ijkl}, antisymmetric pairs (ij) and (kl)
    ric: np.ndarray       # Ric_ij
    scalar: float         # an array of the batch shape for a stack


def christoffel_coeffs(G: np.ndarray, dim: int, order: int,
                       G0inv: np.ndarray) -> np.ndarray:
    """Gamma^k_{ij} of the jet metrics G (..., n, n, ncoef) of order ``order``
    in ``dim >= n`` variables, differentiating along the first n: a
    (..., n, n, n, ncoef) array at order - 1.  ``G0inv`` (..., n, n) holds
    the inverses of the constant terms."""
    if order < 1:
        raise OrderError("christoffel needs metric jets of order >= 1")
    n = G.shape[-2]
    ginv = _inverse_coeffs(G[..., :n_coeffs(dim, order - 1)], dim, order - 1, G0inv)
    dg = derivative_coeffs(G, dim, order)[:n]   # dg[l, ..., i, j] = d_l g_ij
    # first-kind symbols [ij, l] = d_i g_jl + d_j g_il - d_l g_ij, indexed (l, i, j)
    first = (np.einsum("i...jlc->...lijc", dg) + np.einsum("j...ilc->...lijc", dg)
             - np.einsum("l...ijc->...lijc", dg))
    gamma = contract_coeffs("...kl,...lij->...kij", ginv, first, dim, order - 1) / 2
    rows, cols = _upper_pairs(n)
    gamma[..., cols, rows, :] = gamma[..., rows, cols, :]   # exactly symmetric in (i, j)
    return gamma


@lru_cache(maxsize=None)
def _upper_pairs(n: int):
    return np.triu_indices(n, 1)


def riemann_coeffs(gamma: np.ndarray, dim: int, order: int) -> np.ndarray:
    """R^a_{bcd} as a (..., n, n, n, n, ncoef) array at order ``order``, from
    Christoffel jets gamma (..., n, n, n, ncoef) of order + 1 in ``dim >= n``
    variables, differentiating along the first n."""
    n = gamma.shape[-2]
    # d[..., a, b, c, d] = d_c Gamma^a_{db}, q[..., a, b, c, d] = Gamma^a_{ce} Gamma^e_{db}
    d = np.einsum("c...adbt->...abcdt", derivative_coeffs(gamma, dim, order + 1)[:n])
    q = contract_coeffs("...ace,...edb->...abcd", gamma, gamma, dim, order)
    # antisymmetrised in (c, d) term by term: (d + q) - swap rounds differently
    # and moves curvature and conformal-law residuals in the golden records
    return d - d.swapaxes(-3, -2) + q - q.swapaxes(-3, -2)


# christoffel and curvature keep their names: perfbench/tracing.py times them
def christoffel(metric: MetricAtPoint) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij} of the metric's 2-jet (order 1, or 0
    for a metric of order 1), cached on the metric; ``christoffel_coeffs``
    gives them at full order."""
    if metric._gamma is None:
        n, order = metric.n, min(metric.order, 2)
        metric._gamma = christoffel_coeffs(metric.G[..., :n_coeffs(n, order)], n, order,
                                           metric._inverse0())
    return metric._gamma


def curvature(metric: MetricAtPoint) -> CurvatureBundle:
    """Riemann, Ricci and scalar curvature values at the point: the order-0
    Riemann jet of ``christoffel(metric)``; for a stack, one row per metric."""
    if metric.order < 2:
        raise OrderError("curvature needs metric jets of order >= 2")
    up = riemann_coeffs(christoffel(metric), metric.n, 0)[..., 0]
    riem = np.einsum("...ae,...ebcd->...abcd", metric.G[..., 0], up)
    ric = np.einsum("...abad->...bd", up)
    return CurvatureBundle(riem=riem, ric=ric, scalar=trace(metric, ric))


# -- scalar jets on a metric ---------------------------------------------------
#
# u, v and phi below are jets given as coefficient arrays (..., ncoef) in the
# chart's n variables; values broadcast against a stack of metrics.


def trace(metric: MetricAtPoint, h: np.ndarray):
    """g^{ij} h_ij at the point, for a (..., n, n) array h."""
    return np.einsum("...ij,...ij->...", metric._inverse0(), h)


def inner(metric: MetricAtPoint, du: np.ndarray, dv: np.ndarray):
    """g^{ij} du_i dv_j at the point, for covectors (..., n)."""
    ginv = metric._inverse0()
    if du.ndim == dv.ndim == ginv.ndim - 1 == 1:   # one row: no stack indexing
        return du @ ginv @ dv
    # each row a gemv and a dot, as one row alone
    return (du[..., None, :] @ ginv @ dv[..., :, None])[..., 0, 0]


# the gathers below are ``take``s: a C-ordered result, whatever the stack, so
# the matmul and einsum kernels see the same strides in every row (a stack
# gathered by a[..., idx] comes out transposed, and BLAS sums a strided
# vector in another order)


def gradient(u, n: int) -> np.ndarray:
    return _jet_coeffs(u, n, 1, "gradient").take(gradient_index(n), axis=-1)


def hessian(u, metric: MetricAtPoint) -> np.ndarray:
    """Covariant Hessian (nabla^2 u)_ij at the point (Gamma from the
    metric's 2-jet), of shape (..., n, n) for jets u or metrics in a stack."""
    u = _jet_coeffs(u, metric.n, 2, "hessian")
    slots, factors = hessian_index(metric.n)
    gamma0 = christoffel(metric)[..., 0]
    du = u.take(gradient_index(metric.n), axis=-1)
    return u.take(slots, axis=-1) * factors - np.einsum("...kij,...k->...ij", gamma0, du)


def laplacian(u, metric: MetricAtPoint):
    return trace(metric, hessian(u, metric))


def grad_norm2(u, metric: MetricAtPoint):
    du = gradient(u, metric.n)
    return inner(metric, du, du)


def grad_inner(u, v, metric: MetricAtPoint):
    return inner(metric, gradient(u, metric.n), gradient(v, metric.n))


def weighted_laplacian(u, phi, metric: MetricAtPoint):
    """Drift Laplacian: Delta u - <grad phi, grad u>_g."""
    return laplacian(u, metric) - grad_inner(phi, u, metric)
