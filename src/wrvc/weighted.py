"""Weighted curvature of a smooth metric measure space at a point.

A structure is the tuple (g, f, m, mu) on an n-dimensional chart: a
metric, a positive density, a real dimensional parameter m >= 0 and an
auxiliary curvature parameter mu.  With phi = -m ln f (taken on the
density's 2-jet, all that the invariants read) the module
evaluates the drift-modified Ricci and scalar curvatures, the
trace-adjusted tensors (P, J, Y), the density invariant F_phi, the
weighted sigma_k curvature, and the quadratic-order conformal change
identities of (J, P, Y).  A stack of structures at one chart point (a
metric and a density with leading batch axes) is evaluated in one pass by
the same functions; one structure is the batch shape ().

Conventions:

* For m = 0 the density is required to be identically 1; every phi-term
  and every 1/m-term is then identically zero and Y := 0, which
  reproduces the classical unweighted quantities.
* sigma_k for non-integer m uses the binomial-coefficient polynomial
  extension (see ``sigma_k_phi``); for integer m it coincides with the
  elementary symmetric polynomial over the eigenvalue multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, DomainError
from .geometry import (
    MetricAtPoint,
    _jet_coeffs,
    curvature,
    grad_inner,
    grad_norm2,
    gradient,
    hessian,
    inner,
    laplacian,
    stack_note,
    trace,
    weighted_laplacian,
)
from .jets import (
    Jet,
    any_true,
    compose_rows,
    jet_order,
    math_map,
    mul_coeffs,
    n_coeffs,
)

_F_CONSTANT_TOL = 1e-12


def _first(bad) -> tuple:
    """The index of the first true entry of a boolean array (() if 0-d)."""
    return tuple(np.argwhere(bad)[0])


class MetricMeasurePoint:
    """Pointwise data of a smooth metric measure structure: jets of g and f
    plus the parameters (m, mu), or a stack of such structures.

    A stack has a stacked metric ``g`` (``MetricAtPoint`` with leading batch
    axes) and a density ``f`` given as a coefficient array (..., ncoef)
    whose leading axes broadcast against the metric's; a single jet ``f``
    is one density shared by the whole stack.  The checks below name the
    index of the structure that fails them.  ``phi()`` and
    ``weighted_invariants`` are computed once per structure or stack and
    cached on it, like the Christoffel symbols on its metric.  The
    invariants read the structure's 2-jet only: curvature and Hessians take
    the Christoffel symbols of the metric's 2-jet, and ``phi()`` is that of
    the density's 2-jet."""

    def __init__(self, g: MetricAtPoint, f, m: float, mu: float = 0.0):
        if isinstance(f, Jet):
            if f.dim != g.n:
                raise DomainError("density jet dimension does not match the metric")
            fc, self._f_order = f.coeffs, f.order
        else:
            fc = np.asarray(f, dtype=float)
            self._f_order = jet_order(g.n, fc.shape[-1])
            batch = g.G.shape[:-3]
            if np.broadcast_shapes(fc.shape[:-1], batch) != batch:
                raise DimensionMismatch(f"densities of shape {fc.shape[:-1]} for a "
                                        f"stack of {batch} metrics")
        if not (math.isfinite(m) and math.isfinite(mu)):
            raise DomainError(
                f"parameters m and mu must be finite, got m = {m}, mu = {mu}")
        if m < 0:
            raise DomainError(f"dimensional parameter m must be >= 0, got {m}")
        if g.n + m <= 2:
            raise DomainError(
                f"n + m = {g.n + m} <= 2 is rejected (trace-adjustment "
                "denominator vanishes)"
            )
        f0 = fc.T[0].T   # a scalar for one density
        if m > 0 and any_true(f0 <= 0):
            where = _first(f0 <= 0)
            raise DomainError(
                f"density must be positive, got f = {float(f0[where])}{stack_note(where)}")
        if m == 0:
            constant = (np.abs(f0 - 1.0) <= _F_CONSTANT_TOL) & np.all(
                np.abs(fc[..., 1:]) <= _F_CONSTANT_TOL, axis=-1)
            if not np.all(constant):
                raise DomainError("m = 0 requires the density f to be identically 1"
                                  + stack_note(_first(~constant)))
        self.g = g
        self.f = f
        self._fc = fc
        self.m = float(m)
        self.mu = float(mu)
        self._phi = None
        self._invariants = None

    @property
    def n(self) -> int:
        return self.g.n

    def phi(self):
        """phi = -m ln f on the density's 2-jet (zero when m = 0), cached on
        the structure, as coefficients (..., ncoef)."""
        if self._phi is None:
            n, order = self.n, min(self._f_order, 2)
            f2 = self._fc[..., :n_coeffs(n, order)]
            if self.m == 0:
                self._phi = np.zeros_like(f2)
            else:
                self._phi = compose_rows("log", f2, n, order)
                self._phi *= -self.m
        return self._phi


@dataclass
class WeightedInvariants:
    """All pointwise weighted invariants of one structure, or of a stack
    (each field then has the stack's batch axes leading)."""

    ric_phi: np.ndarray
    r_phi: float
    P: np.ndarray
    J: float
    Y: float
    F_phi: float
    n: int
    m: float


def weighted_invariants(p: MetricMeasurePoint) -> WeightedInvariants:
    """The weighted curvature invariants at the chart point, cached on the
    structure (every caller shares one result), for one structure or a
    whole stack in one pass.  Curvature and Hessians read the metric's
    2-jet, and phi that of the density (``p.phi()``)."""
    if p._invariants is None:
        p._invariants = _weighted_invariants(p)
    return p._invariants


def _weighted_invariants(p: MetricMeasurePoint) -> WeightedInvariants:
    n, m, mu, g = p.n, p.m, p.mu, p.g
    bundle = curvature(g)
    ric, scal = bundle.ric, bundle.scalar

    if m > 0:
        phi = p.phi()
        dphi = gradient(phi, n)
        hess_phi = hessian(phi, g)
        ric_phi = ric + hess_phi - dphi[..., :, None] * dphi[..., None, :] / m
        r_phi = (
            scal
            + 2.0 * trace(g, hess_phi)
            - (m + 1.0) / m * inner(g, dphi, dphi)
            + m * (m - 1.0) * mu * math_map(math.exp, 2.0 * phi[..., 0] / m)
        )
    else:
        ric_phi = ric.copy()
        r_phi = scal

    J = r_phi / (2.0 * (n + m - 1.0))
    P = (ric_phi - np.asarray(J)[..., None, None] * g.G[..., 0]) / (n + m - 2.0)
    Y = np.zeros(np.shape(J))[()] if m == 0 else J - trace(g, P)

    F_phi = p._fc[..., 0] * laplacian(p._fc, g) + (m - 1.0) * (grad_norm2(p._fc, g) - mu)

    return WeightedInvariants(
        ric_phi=ric_phi, r_phi=r_phi, P=P, J=J, Y=Y, F_phi=F_phi, n=n, m=m
    )


def ric_phi_alternate(p: MetricMeasurePoint) -> np.ndarray:
    """Independent route to the weighted Ricci: Ric - (m/f) nabla^2 f.

    Must agree with the phi-formula by the logarithmic-derivative identity.
    """
    f0 = p._fc[..., 0]
    if any_true(f0 <= 0):
        raise DomainError("density must be positive")
    ric = curvature(p.g).ric
    if p.m == 0:
        return ric
    return ric - np.asarray(p.m / f0)[..., None, None] * hessian(p._fc, p.g)


# -- conformal change ----------------------------------------------------


def conformal_rescale(p: MetricMeasurePoint, sigma) -> MetricMeasurePoint:
    """The structure (e^{2 sigma} g, e^{sigma} f), multiplying the jets
    through; m, mu unchanged.  ``sigma`` is a jet, or jets (..., ncoef):
    then the result is a stack, one rescaled structure per row of sigma, in
    one pass.  At m = 0 f stays 1 (the same object): its weight f^0 is 1."""
    n = p.n
    s = _jet_coeffs(sigma, n, 0, "conformal rescale")
    order = jet_order(n, s.shape[-1])
    g = p.g.rescale(compose_rows("exp", s * 2.0, n, order))
    if p.m == 0:
        return MetricMeasurePoint(g, p.f, p.m, p.mu)
    k = min(order, p._f_order)
    nc = n_coeffs(n, k)
    f = mul_coeffs(compose_rows("exp", s, n, order)[..., :nc], p._fc[..., :nc], n, k)
    if isinstance(sigma, Jet) and isinstance(p.f, Jet):
        f = Jet._unchecked(n, k, f)
    return MetricMeasurePoint(g, f, p.m, p.mu)


@dataclass
class ConformalLawReport:
    residual_J: float
    residual_P: float
    residual_Y: float


def check_conformal_laws(p: MetricMeasurePoint, omegas) -> list[ConformalLawReport]:
    """Compare a direct re-evaluation on the rescaled structure against the
    quadratic-order change identities for (J, P, Y), for each deformation
    omega of a sequence of jets of one order; one report per deformation,
    in order.

    The structure is rescaled by sigma = -omega/(n+m-2), that is
    (g, f) -> (e^{-2 omega/(n+m-2)} g, e^{-omega/(n+m-2)} f).  With
    N = n+m-2, the identities certified here are, with all derivatives
    taken in the original structure,

        e^{-2 omega/N} J^      = J + (Delta_phi omega - |grad omega|^2 / 2) / N
        P^                     = P + (hess omega)/N + (d omega x d omega)/N^2
                                   - |grad omega|^2 g / (2 N^2)
        e^{-2 omega/N} Y^      = Y - <grad phi, grad omega>/N
                                   - m |grad omega|^2 / (2 N^2)

    Equivalently the unnormalized quantities (N J, N P, N Y) satisfy the
    same identities with the 1/N factors absorbed.  Each report holds the
    absolute residual of each of the three laws.

    One stacked pass: the invariants of ``p`` (one structure) are computed
    once, and every rescaled structure is a row of one stack
    (``conformal_rescale`` of the stacked omegas).  Each row's arithmetic
    is that of its deformation checked alone, so a report does not depend
    on the other deformations beside it.
    """
    n, m = p.n, p.m
    N = n + m - 2.0
    W = [_jet_coeffs(w, n, 0, "a conformal law") for w in omegas]
    if len({w.shape for w in W}) != 1:
        raise DimensionMismatch("the conformal laws need one or more deformations "
                                "of one jet order")
    W = np.stack(W)

    base = weighted_invariants(p)
    hat = weighted_invariants(conformal_rescale(p, W * (-1.0 / N)))
    factor = math_map(math.exp, -2.0 * W[:, 0] / N)

    phi = p.phi()
    g0 = p.g.G[..., 0]
    domega = gradient(W, n)
    grad2 = grad_norm2(W, p.g)
    hess_omega = hessian(W, p.g)
    lap_phi_omega = weighted_laplacian(W, phi, p.g)

    rhs_J = base.J + (lap_phi_omega - 0.5 * grad2) / N
    rhs_P = (
        base.P
        + hess_omega / N
        + domega[:, :, None] * domega[:, None, :] / N**2
        - grad2[:, None, None] * g0 / (2.0 * N**2)
    )
    rhs_Y = base.Y - grad_inner(phi, W, p.g) / N - m * grad2 / (2.0 * N**2)

    residuals = zip(np.abs(factor * hat.J - rhs_J),
                    np.max(np.abs(hat.P - rhs_P), axis=(-2, -1)),
                    np.abs(factor * hat.Y - rhs_Y))
    return [ConformalLawReport(float(J), float(P), float(Y)) for J, P, Y in residuals]


# -- symmetric polynomial curvature ----------------------------------------


def generalized_binomial(m: float, j: int) -> float:
    """m (m-1) ... (m-j+1) / j! for real m."""
    out = 1.0
    for i in range(j):
        out *= (m - i) / (i + 1)
    return out


@lru_cache(maxsize=None)
def _principal_index(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index arrays selecting every k x k principal minor."""
    idx = np.array(list(combinations(range(n), k)))
    return idx[:, :, None], idx[:, None, :]


def elementary_symmetric_matrix(a: np.ndarray, k: int) -> float:
    """e_k of the eigenvalues of a, as the sum of k x k principal minors."""
    n = a.shape[0]
    if k == 0:
        return 1.0
    if k > n:
        return 0.0
    rows, cols = _principal_index(n, k)
    # summed left to right from 0, as one determinant at a time would be
    return float(sum(np.linalg.det(a[rows, cols]).tolist()))


def sigma_k_phi(Y: float, P: np.ndarray, g: np.ndarray, m: float, k: int) -> float:
    """Weighted sigma_k curvature from (Y, P) at a point.

    For integer m this is the elementary symmetric polynomial of degree k
    of Y/m repeated m times together with the eigenvalues of g^{-1} P.
    For general real m > 0 it is the polynomial extension

        sum_j C(m, j) (Y/m)^j e_{k-j}(g^{-1} P),

    which agrees with the multiset formula whenever m is a natural number
    and reduces to e_k(g^{-1} P) at m = 0 (where Y vanishes identically).
    """
    if k < 0:
        raise DomainError(f"sigma_k needs k >= 0, got {k}")
    if k == 0:
        return 1.0
    A = np.linalg.solve(g, P)
    # at m = 0 only the j = 0 term is left: C(0, j) = 0 for j >= 1
    t = 0.0 if m == 0 else Y / m
    total = 0.0
    for j in range(k + 1):
        c = generalized_binomial(m, j)
        if c == 0.0:
            continue
        total += c * t**j * elementary_symmetric_matrix(A, k - j)
    return total


def v1_v2_closed_form(J: float, P: np.ndarray, Y: float, g: np.ndarray,
                      m: float) -> tuple[float, float]:
    """The first two volume coefficients from the pointwise invariants:
    v1 = J and v2 = (J^2 - |P|^2 - Y^2/m)/2, with the Y term dropped at m = 0."""
    A = np.linalg.solve(g, P)
    P_norm2 = float(np.einsum("ij,ji->", A, A))
    y_term = 0.0 if m == 0 else Y**2 / m
    return J, 0.5 * (J**2 - P_norm2 - y_term)


def quasi_einstein_residual(
    w: WeightedInvariants, g: np.ndarray, n: int, m: float
) -> tuple[float, float]:
    """Best-fit proportionality constant lambda = J/(n+m) and the residual
    max(|P - lambda g|_inf / max(|P|_inf, |lambda| |g|_inf),
    |tr_g P - n lambda| / max(|tr_g P|, n |lambda|)), each part relative to
    its own scale (P is in units of curvature times g, the trace in units of
    lambda).  The scales are floored at 1e-3 (in units of g for P), so a
    flat structure reads about 0."""
    lam = w.J / (n + m)
    tr_P = float(np.trace(np.linalg.solve(g, w.P)))
    g_scale = float(np.max(np.abs(g)))
    residual = max(
        float(np.max(np.abs(w.P - lam * g)))
        / max(float(np.max(np.abs(w.P))), abs(lam) * g_scale, 1e-3 * g_scale),
        abs(tr_P - n * lam) / max(abs(tr_P), n * abs(lam), 1e-3),
    )
    return lam, residual
