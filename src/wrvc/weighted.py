"""Weighted curvature of a smooth metric measure space at a point.

A structure is the tuple (g, f, m, mu) on an n-dimensional chart: a
metric, a positive density, a real dimensional parameter m >= 0 and an
auxiliary curvature parameter mu.  With phi = -m ln f the module
evaluates the drift-modified Ricci and scalar curvatures, the
trace-adjusted tensors (P, J, Y), the density invariant F_phi, the
weighted sigma_k curvature, and the quadratic-order conformal change
identities of (J, P, Y).

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

from .errors import DomainError
from .geometry import (
    MetricAtPoint,
    curvature,
    grad_inner,
    grad_norm2,
    gradient,
    hessian,
    laplacian,
    weighted_laplacian,
)
from .jets import Jet

_F_CONSTANT_TOL = 1e-12


class MetricMeasurePoint:
    """Pointwise data of a smooth metric measure structure: jets of g and f
    plus the parameters (m, mu).

    ``phi()`` and ``weighted_invariants`` are computed once per structure
    and cached on it, like the Christoffel symbols on its metric."""

    def __init__(self, g: MetricAtPoint, f: Jet, m: float, mu: float = 0.0):
        if f.dim != g.n:
            raise DomainError("density jet dimension does not match the metric")
        if m < 0:
            raise DomainError(f"dimensional parameter m must be >= 0, got {m}")
        if g.n + m <= 2:
            raise DomainError(
                f"n + m = {g.n + m} <= 2 is rejected (trace-adjustment "
                "denominator vanishes)"
            )
        if m > 0 and f.value <= 0:
            raise DomainError(f"density must be positive, got f = {f.value}")
        if m == 0 and not (
            abs(f.value - 1.0) <= _F_CONSTANT_TOL
            and np.all(np.abs(f.coeffs[1:]) <= _F_CONSTANT_TOL)
        ):
            raise DomainError("m = 0 requires the density f to be identically 1")
        self.g = g
        self.f = f
        self.m = float(m)
        self.mu = float(mu)
        self._phi = None
        self._invariants = None

    @property
    def n(self) -> int:
        return self.g.n

    def phi(self) -> Jet:
        """phi = -m ln f (the zero jet when m = 0), cached on the structure."""
        if self._phi is None:
            if self.m == 0:
                self._phi = Jet.constant(0.0, self.g.n, self.f.order)
            else:
                self._phi = self.f.log() * (-self.m)
        return self._phi


@dataclass
class WeightedInvariants:
    """All pointwise weighted invariants of one structure."""

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
    structure (every caller shares one result)."""
    if p._invariants is None:
        p._invariants = _weighted_invariants(p)
    return p._invariants


def _weighted_invariants(p: MetricMeasurePoint) -> WeightedInvariants:
    n, m, mu = p.n, p.m, p.mu
    bundle = curvature(p.g)
    ric, scal = bundle.ric, bundle.scalar
    g0 = p.g.matrix
    ginv0 = p.g.inverse_matrix

    if m > 0:
        phi = p.phi()
        dphi = gradient(phi, n)
        ric_phi = ric + hessian(phi, p.g) - np.outer(dphi, dphi) / m
        r_phi = (
            scal
            + 2.0 * laplacian(phi, p.g)
            - (m + 1.0) / m * grad_norm2(phi, p.g)
            + m * (m - 1.0) * mu * math.exp(2.0 * phi.value / m)
        )
    else:
        ric_phi = ric.copy()
        r_phi = scal

    J = r_phi / (2.0 * (n + m - 1.0))
    P = (ric_phi - J * g0) / (n + m - 2.0)
    Y = 0.0 if m == 0 else J - float(np.einsum("ij,ij->", ginv0, P))

    f0 = p.f.value
    F_phi = f0 * laplacian(p.f, p.g) + (m - 1.0) * (grad_norm2(p.f, p.g) - mu)

    return WeightedInvariants(
        ric_phi=ric_phi, r_phi=r_phi, P=P, J=J, Y=Y, F_phi=F_phi, n=n, m=m
    )


def ric_phi_alternate(p: MetricMeasurePoint) -> np.ndarray:
    """Independent route to the weighted Ricci: Ric - (m/f) nabla^2 f.

    Must agree with the phi-formula by the logarithmic-derivative identity.
    """
    if p.f.value <= 0:
        raise DomainError("density must be positive")
    ric = curvature(p.g).ric
    if p.m == 0:
        return ric
    return ric - (p.m / p.f.value) * hessian(p.f, p.g)


# -- conformal change ----------------------------------------------------


def conformal_rescale(p: MetricMeasurePoint, sigma: Jet) -> MetricMeasurePoint:
    """The structure (e^{2 sigma} g, e^{sigma} f), multiplying the jets
    through; m, mu unchanged."""
    scale_g = (sigma * 2.0).exp()
    ghat = p.g.rescale(scale_g)
    fhat = sigma.exp() * p.f
    return MetricMeasurePoint(ghat, fhat, p.m, p.mu)


@dataclass
class ConformalLawReport:
    residual_J: float
    residual_P: float
    residual_Y: float


def check_conformal_laws(p: MetricMeasurePoint, omega: Jet) -> ConformalLawReport:
    """Compare a direct re-evaluation on the rescaled structure against the
    quadratic-order change identities for (J, P, Y).

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
    same identities with the 1/N factors absorbed.  Returns the absolute
    residual of each of the three laws.
    """
    n, m = p.n, p.m
    N = n + m - 2.0

    base = weighted_invariants(p)
    hat = weighted_invariants(conformal_rescale(p, omega * (-1.0 / N)))
    factor = math.exp(-2.0 * omega.value / N)

    phi = p.phi()
    g0 = p.g.matrix
    domega = gradient(omega, n)
    grad2 = grad_norm2(omega, p.g)
    hess_omega = hessian(omega, p.g)
    lap_phi_omega = weighted_laplacian(omega, phi, p.g)

    rhs_J = base.J + (lap_phi_omega - 0.5 * grad2) / N
    rhs_P = (
        base.P
        + hess_omega / N
        + np.outer(domega, domega) / N**2
        - grad2 * g0 / (2.0 * N**2)
    )
    rhs_Y = base.Y - grad_inner(phi, omega, p.g) / N - m * grad2 / (2.0 * N**2)

    return ConformalLawReport(
        residual_J=abs(factor * hat.J - rhs_J),
        residual_P=float(np.max(np.abs(hat.P - rhs_P))),
        residual_Y=abs(factor * hat.Y - rhs_Y),
    )


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
    if m == 0:
        return elementary_symmetric_matrix(A, k)
    t = Y / m
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
    max(|P - lambda g|_inf, |tr_g P - n lambda|)."""
    lam = w.J / (n + m)
    tr_P = float(np.trace(np.linalg.solve(g, w.P)))
    residual = max(
        float(np.max(np.abs(w.P - lam * g))),
        abs(tr_P - n * lam),
    )
    return lam, residual
