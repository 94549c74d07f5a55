"""Truncated power series in the expansion parameter rho and the ambient
coefficient pipeline built on them.

``RhoSeries`` holds Taylor coefficients c_0..c_K (so the stored entry k is
(1/k!) d_rho^k at 0, not the raw derivative).  Coefficients are scalars or
symmetric matrices, optionally batched along leading axes after the order
axis.  Every series product is one truncated Cauchy product that gathers
all (i, k - i) pairs into a single multiply, so its temporaries hold
about K^2/2 coefficients: sized for a few points at a time, not for a
quadrature grid (which needs one scalar v_k per proportional model).

The ambient data of a structure at a point is an ``AmbientExpansion``:
coefficient lists of the metric family g_rho and density family f_rho.
From it this module extracts

* the volume coefficients v_k of (f_rho/f)^m (det g_rho / det g)^{1/2},
* the curvature-normal series Lambda^(k) and its rho=0 restrictions (the
  extended obstruction tensors),
* the self-consistency residual tying f'' to the trace of Lambda^(1),
* the second-order operator coefficients L_k from the series
  v(rho) * int_0^rho g^{ij}.

When n+m is an even integer the expansion only determines orders
k <= (n+m)/2; requests beyond that raise ``DeterminacyError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DeterminacyError, DimensionMismatch, DomainError, OrderError
from .jets import MAX_DIM

_LEADING_TOL = 1e-300
MAX_AMBIENT_ORDER = 32   # largest K taken from a file header or the command line

_ELEMENTWISE = "i...,i...->..."
_MATMUL = "i...jl,i...lm->...jm"


@lru_cache(maxsize=None)
def _pair_tables(K: int):
    """Indices (i, k - i) of every pair with k <= K, and the (K+1, pairs)
    0/1 matrix that sums each order's pairs."""
    i = np.array([i for k in range(K + 1) for i in range(k + 1)])
    j = np.array([k - i for k in range(K + 1) for i in range(k + 1)])
    sums = np.zeros((K + 1, i.size))
    sums[i + j, np.arange(i.size)] = 1.0
    for arr in (i, j, sums):
        arr.flags.writeable = False
    return i, j, sums


def _cauchy(a: np.ndarray, b: np.ndarray, matmul: bool = False) -> np.ndarray:
    """Truncated Cauchy product c_k = sum_i a_i b_{k-i} of two coefficient
    arrays ``(K+1, ...)``, truncated at the lower order.  Coefficients
    multiply elementwise with broadcasting, or as matrices when ``matmul``."""
    K = min(a.shape[0], b.shape[0]) - 1
    i, j, sums = _pair_tables(K)
    prod = np.matmul(a[i], b[j]) if matmul else a[i] * b[j]
    return (sums @ prod.reshape(i.size, -1)).reshape((K + 1,) + prod.shape[1:])


@lru_cache(maxsize=None)
def _laplace_tables(n: int):
    """Per level s = 2..n of the Laplace expansion down the rows of an n x n
    matrix: the row r = n - s and, for every term (column set S with
    |S| = s, position p in S), the column S[p] and the index of S minus
    S[p] among the previous level's sets; plus the (sets, terms) matrix
    whose entry (-1)^p adds each term into the minor of S."""
    levels = []
    prev = {(c,): c for c in range(n)}
    for s in range(2, n + 1):
        sets = list(combinations(range(n), s))
        terms = [(S[p], prev[S[:p] + S[p + 1:]], dest, (-1.0) ** p)
                 for dest, S in enumerate(sets) for p in range(s)]
        cols, sub, dest, sign = (np.array(col) for col in zip(*terms))
        signed = np.zeros((len(sets), len(terms)))
        signed[dest, np.arange(len(terms))] = sign
        for arr in (cols, sub, signed):
            arr.flags.writeable = False
        levels.append((n - s, cols, sub, signed))
        prev = {S: idx for idx, S in enumerate(sets)}
    return levels


class RhoSeries:
    """Polynomial in rho, truncated at order K, with scalar or matrix
    coefficients (optionally batched along leading axes after the first)."""

    def __init__(self, coeffs, kind: str = "scalar"):
        if kind not in ("scalar", "matrix"):
            raise DomainError(f"unknown series kind {kind!r}")
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.kind = kind
        if kind == "matrix":
            if self.coeffs.ndim < 3 or self.coeffs.shape[-1] != self.coeffs.shape[-2]:
                raise DimensionMismatch("matrix series needs (K+1, ..., n, n) coeffs")

    @property
    def K(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def n(self) -> int:
        if self.kind != "matrix":
            raise DimensionMismatch("scalar series has no matrix size")
        return self.coeffs.shape[-1]

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, RhoSeries):
            if self.kind != other.kind:
                raise DimensionMismatch("cannot add scalar and matrix series")
            K = min(self.K, other.K)
            return RhoSeries(self.coeffs[: K + 1] + other.coeffs[: K + 1], self.kind)
        out = self.coeffs.copy()
        out[0] = out[0] + other
        return RhoSeries(out, self.kind)

    __radd__ = __add__

    def __neg__(self):
        return RhoSeries(-self.coeffs, self.kind)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RhoSeries) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RhoSeries):
            return RhoSeries(self.coeffs * float(other), self.kind)
        a, b = self.coeffs, other.coeffs
        if self.kind == other.kind:
            return RhoSeries(_cauchy(a, b, matmul=self.kind == "matrix"), self.kind)
        if self.kind == "scalar":
            a = a[..., None, None]
        else:
            b = b[..., None, None]
        return RhoSeries(_cauchy(a, b), "matrix")

    __rmul__ = __mul__

    # -- calculus ---------------------------------------------------------

    def derivative(self) -> "RhoSeries":
        """d/d rho; the truncation order drops by one."""
        if self.K < 1:
            raise OrderError("cannot differentiate an order-0 series")
        return RhoSeries(self.coeffs[1:] * self._orders(1, self.K + 1), self.kind)

    def antiderivative(self) -> "RhoSeries":
        """int_0^rho; vanishing constant term, order grows by one."""
        out = np.concatenate(
            [np.zeros((1,) + self.coeffs.shape[1:]),
             self.coeffs / self._orders(1, self.K + 2)]
        )
        return RhoSeries(out, self.kind)

    def _orders(self, start: int, stop: int) -> np.ndarray:
        """start..stop-1 shaped to scale coefficients along the order axis."""
        shape = (-1,) + (1,) * (self.coeffs.ndim - 1)
        return np.arange(start, stop, dtype=float).reshape(shape)

    # -- scalar transcendental heads ---------------------------------------

    def scalar_inverse(self) -> "RhoSeries":
        self._require("scalar")
        a = self.coeffs
        if np.any(np.abs(a[0]) <= _LEADING_TOL):
            raise DomainError("series inverse needs a nonzero leading coefficient")
        out = np.empty_like(a)
        out[0] = 1.0 / a[0]
        for k in range(1, self.K + 1):
            out[k] = -np.einsum(_ELEMENTWISE, a[1 : k + 1], out[k - 1 :: -1]) / a[0]
        return RhoSeries(out, "scalar")

    def scalar_exp(self) -> "RhoSeries":
        self._require("scalar")
        a = self.coeffs
        ja = a * self._orders(0, self.K + 1)
        out = np.empty_like(a)
        out[0] = np.exp(a[0])
        for k in range(1, self.K + 1):
            out[k] = np.einsum(_ELEMENTWISE, ja[1 : k + 1], out[k - 1 :: -1]) / k
        return RhoSeries(out, "scalar")

    def scalar_log(self) -> "RhoSeries":
        self._require("scalar")
        a = self.coeffs
        if np.any(a[0] <= 0.0):
            raise DomainError("series log needs a positive leading coefficient")
        out = np.empty_like(a)
        jout = np.empty_like(a)   # j * out[j]
        out[0] = np.log(a[0])
        for k in range(1, self.K + 1):
            acc = np.einsum(_ELEMENTWISE, jout[1:k], a[k - 1 : 0 : -1])
            out[k] = (a[k] - acc / k) / a[0]
            jout[k] = k * out[k]
        return RhoSeries(out, "scalar")

    def scalar_pow(self, alpha: float) -> "RhoSeries":
        return (self.scalar_log() * float(alpha)).scalar_exp()

    # -- matrix heads -------------------------------------------------------

    def matrix_inverse(self) -> "RhoSeries":
        self._require("matrix")
        a = self.coeffs
        try:
            b0 = np.linalg.inv(a[0])
        except np.linalg.LinAlgError:
            raise DomainError("series inverse needs an invertible leading matrix")
        out = np.empty_like(a)
        out[0] = b0
        for k in range(1, self.K + 1):
            out[k] = -b0 @ np.einsum(_MATMUL, a[1 : k + 1], out[k - 1 :: -1])
        return RhoSeries(out, "matrix")

    def matrix_det(self) -> "RhoSeries":
        """Laplace expansion down the rows: the minor on the trailing rows
        is built once per column set, and each level is one Cauchy product
        of its stacked terms."""
        self._require("matrix")
        batch = self.coeffs.shape[1:-2]
        a = np.moveaxis(self.coeffs, (-2, -1), (1, 2))
        a = a.reshape(a.shape[:3] + (-1,))
        minors = a[:, -1]
        for row, cols, sub, signed in _laplace_tables(self.n):
            minors = signed @ _cauchy(a[:, row, cols], minors[:, sub])
        return RhoSeries(minors[:, 0].reshape((-1,) + batch), "scalar")

    def matrix_trace(self) -> "RhoSeries":
        self._require("matrix")
        return RhoSeries(np.trace(self.coeffs, axis1=-2, axis2=-1), "scalar")

    def symmetrize(self) -> "RhoSeries":
        self._require("matrix")
        return RhoSeries(
            0.5 * (self.coeffs + np.swapaxes(self.coeffs, -1, -2)), "matrix"
        )

    def _require(self, kind: str):
        if self.kind != kind:
            raise DimensionMismatch(f"operation needs a {kind} series")

    def __repr__(self):
        return f"RhoSeries(kind={self.kind}, K={self.K}, shape={self.coeffs.shape})"


# -- ambient expansions -----------------------------------------------------


@dataclass
class AmbientExpansion:
    """Taylor data of (g_rho, f_rho) at one point (or a batch of points).

    ``gcoeffs[k]`` and ``fcoeffs[k]`` are Taylor coefficients
    (1/k!) d_rho^k at rho = 0, so gcoeffs[0] is the base metric and
    fcoeffs[0] the base density.
    """

    gcoeffs: np.ndarray   # (K+1, ..., n, n)
    fcoeffs: np.ndarray   # (K+1, ...)

    def __post_init__(self):
        self.gcoeffs = np.asarray(self.gcoeffs, dtype=float)
        self.fcoeffs = np.asarray(self.fcoeffs, dtype=float)
        if self.gcoeffs.ndim < 3 or self.gcoeffs.shape[-1] != self.gcoeffs.shape[-2]:
            raise DimensionMismatch("gcoeffs must have shape (K+1, ..., n, n)")
        if self.fcoeffs.shape[0] != self.gcoeffs.shape[0]:
            raise DimensionMismatch("gcoeffs and fcoeffs must share the order axis")
        if np.any(self.fcoeffs[0] <= 0.0):
            raise DomainError("base density must be positive")

    @property
    def n(self) -> int:
        return self.gcoeffs.shape[-1]

    @property
    def K(self) -> int:
        return self.gcoeffs.shape[0] - 1

    @property
    def g(self) -> np.ndarray:
        return self.gcoeffs[0]

    @property
    def f(self):
        return self.fcoeffs[0]

    def g_series(self) -> RhoSeries:
        return RhoSeries(self.gcoeffs, "matrix")

    def f_series(self) -> RhoSeries:
        return RhoSeries(self.fcoeffs, "scalar")


@dataclass
class VolumeCoefficients:
    """v_1..v_K extracted from an expansion (batch axes preserved)."""

    v: np.ndarray

    def __getitem__(self, k: int):
        if not 1 <= k <= self.v.shape[0]:
            raise OrderError(f"v_{k} not available (have 1..{self.v.shape[0]})")
        return self.v[k - 1]

    def __len__(self):
        return self.v.shape[0]


def determinacy_cap(n: int, m: float) -> float | None:
    """(n+m)/2 when n+m is an even natural number, else None (no cap)."""
    nm = n + m
    if abs(nm - round(nm)) < 1e-9 and round(nm) % 2 == 0 and round(nm) > 0:
        return round(nm) / 2
    return None


def check_determinacy(n: int, m: float, k: int):
    cap = determinacy_cap(n, m)
    if cap is not None and k > cap:
        raise DeterminacyError(
            f"order {k} is beyond determinacy order {cap:g} for n+m = {n + m:g} "
            "(even-integer total dimension)"
        )


def volume_series(a: AmbientExpansion, m: float) -> RhoSeries:
    """The scalar series (f_rho/f)^m (det g_rho / det g)^{1/2}, as
    exp(m log(f_rho/f) + log(det g_rho / det g) / 2)."""
    log_f = a.f_series().scalar_log().coeffs
    log_det = a.g_series().matrix_det().scalar_log().coeffs
    exponent = m * log_f + 0.5 * log_det
    exponent[0] = 0.0     # both logs of ratios vanish at rho = 0
    return RhoSeries(exponent, "scalar").scalar_exp()


def volume_coefficients(a: AmbientExpansion, m: float) -> VolumeCoefficients:
    """Extract v_1..v_K; errors when K exceeds the determinacy cap."""
    if a.K < 1:
        raise OrderError("expansion must carry at least one rho order")
    check_determinacy(a.n, m, a.K)
    return VolumeCoefficients(v=volume_series(a, m).coeffs[1:])


def lambda_one_series(a: AmbientExpansion) -> RhoSeries:
    """Lambda^(1)(rho) = (g'' - g' g^{-1} g' / 2) / 2 as a matrix series."""
    if a.K < 2:
        raise OrderError("Lambda^(1) needs K >= 2")
    g = a.g_series()
    gp = g.derivative()
    return _lambda_one(gp, gp * g.matrix_inverse())


def _lambda_one(gp: RhoSeries, gp_ginv: RhoSeries) -> RhoSeries:
    """Lambda^(1) from g' and g' g^{-1}."""
    quad = (gp_ginv * gp) * 0.5
    return ((gp.derivative() - quad) * 0.5).symmetrize()


@dataclass
class ObstructionSet:
    """Restrictions Omega^(k) = Lambda^(k)(0) of the curvature-normal series."""

    omegas: list = field(default_factory=list)      # Omega^(1)..Omega^(K-1)

    def trace_norms(self, base_g: np.ndarray) -> np.ndarray:
        """|g^{ij} Omega^(k)_{ij}| for each k (max over any batch axes)."""
        ginv = np.linalg.inv(base_g)
        return np.array(
            [np.max(np.abs(np.einsum("...ij,...ij->...", ginv, om)))
             for om in self.omegas]
        )

    def sup_norms(self) -> np.ndarray:
        return np.array([np.max(np.abs(om)) for om in self.omegas])


def obstruction_tensors(a: AmbientExpansion) -> ObstructionSet:
    """Iterate the normal-direction recursion

        Lambda^(k+1) = d_rho Lambda^(k)
                       - (g' g^{-1} Lambda^(k) + Lambda^(k) g^{-1} g') / 2

    starting from Lambda^(1) and restrict each step to rho = 0.  The
    symmetrized pairing carries weight 1/2; with that weight the recursion
    closes exactly on the model families.  Each step consumes one series
    order, so K orders of data determine Omega^(1)..Omega^(K-1).
    """
    if a.K < 2:
        raise OrderError("obstruction tensors need K >= 2")
    g = a.g_series()
    gp = g.derivative()
    # g^{-1} g' is the transpose of g' g^{-1}, so the correction is the
    # symmetric part of g' g^{-1} Lambda^(k)
    gp_ginv = gp * g.matrix_inverse()
    lam = _lambda_one(gp, gp_ginv)
    out = ObstructionSet()
    out.omegas.append(lam.coeffs[0].copy())
    for _ in range(2, a.K):
        if lam.K < 1:
            break
        lam = lam.derivative() - (gp_ginv * lam).symmetrize()
        out.omegas.append(lam.coeffs[0].copy())
    return out


def f_second_residual(a: AmbientExpansion, m: float):
    """|f'' + (f/m) g^{ij} Lambda^(1)_{ij}| at rho = 0.

    fcoeffs stores Taylor coefficients, so f'' = 2 fcoeffs[2].
    """
    if m <= 0:
        raise DomainError("self-consistency residual needs m > 0")
    if a.K < 2:
        raise OrderError("self-consistency residual needs K >= 2")
    omega1 = lambda_one_series(a).coeffs[0]
    ginv = np.linalg.inv(a.g)
    trace = np.einsum("...ij,...ij->...", ginv, omega1)
    return np.abs(2.0 * a.fcoeffs[2] + (a.f / m) * trace)


def l_operator(a: AmbientExpansion, m: float, k: int) -> np.ndarray:
    """Minus the k-th Taylor coefficient of v(rho) int_0^rho g^{ij}(u) du.

    Returns the contravariant symmetric matrix (L_k)^{ij} (batch axes
    preserved when the expansion is batched).
    """
    return _volume_and_l_operator(a, m, k)[1]


def _volume_and_l_operator(a: AmbientExpansion, m: float, k: int):
    """(v_k, L_k) from one volume series; the order checks of ``l_operator``."""
    if not 1 <= k <= a.K:
        raise OrderError(f"k = {k} outside 1..{a.K}")
    check_determinacy(a.n, m, k)
    v = volume_series(a, m)
    return v.coeffs[k], -_l_series(a, v).coeffs[k]


def l_operator_series(a: AmbientExpansion, m: float) -> RhoSeries:
    """The matrix series v(rho) * int_0^rho g^{ij}(u) du (order K)."""
    return _l_series(a, volume_series(a, m))


def _l_series(a: AmbientExpansion, v: RhoSeries) -> RhoSeries:
    return v * a.g_series().matrix_inverse().antiderivative()


def poincare_to_ambient(r_coeffs, tol: float = 1e-12) -> RhoSeries:
    """Substitute r^2 = -2 rho into an even series in r.

    The coefficient of r^{2k} becomes the coefficient of rho^k times
    (-2)^k.  Odd-power content above ``tol`` is rejected.
    """
    r = np.asarray(r_coeffs, dtype=float)
    if r.ndim != 1:
        raise DimensionMismatch("expected a 1-D array of r-coefficients")
    odd = r[1::2]
    if odd.size and np.max(np.abs(odd)) > tol:
        raise DomainError(
            f"odd powers of r present (max magnitude {np.max(np.abs(odd)):g})"
        )
    even = r[0::2]
    k = np.arange(even.size, dtype=float)
    return RhoSeries(even * (-2.0) ** k, "scalar")


# -- plain-text coefficient files ---------------------------------------------


def save_ambient_file(a: AmbientExpansion, m: float, mu: float, path):
    """Write `n m mu K` then `g k i j value` / `f k value` rows."""
    if a.gcoeffs.ndim != 3:
        raise DimensionMismatch("only unbatched expansions can be saved")
    n, K = a.n, a.K
    lines = [f"{n} {m:.17g} {mu:.17g} {K}"]
    for k in range(K + 1):
        for i in range(n):
            for j in range(n):
                lines.append(f"g {k} {i} {j} {a.gcoeffs[k, i, j]:.17g}")
    for k in range(K + 1):
        lines.append(f"f {k} {a.fcoeffs[k]:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ambient_file(path):
    """Read a coefficient file; returns (expansion, m, mu).

    Every malformed header or row raises ``DomainError`` naming
    ``path:line``."""
    expansion, m, mu, _ = _read_ambient_file(path)
    return expansion, m, mu


def _read_ambient_file(path):
    """``load_ambient_file`` plus the line number of the header."""
    try:
        with open(path) as fh:
            raw = [(num, ln.strip()) for num, ln in enumerate(fh, start=1)
                   if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise DomainError(f"cannot read ambient coefficient file {path}: "
                          f"{exc.strerror}")
    if not raw:
        raise DomainError(f"empty ambient coefficient file {path}")

    def fail(num, msg):
        raise DomainError(f"{path}:{num}: {msg}")

    def number(num, token, kind=float):
        try:
            value = kind(token)
        except ValueError:
            fail(num, f"bad number {token!r}")
        if not math.isfinite(value):
            fail(num, f"non-finite number {token!r}")
        return value

    def index(num, token, size, name):
        value = number(num, token, int)
        if not 0 <= value < size:
            fail(num, f"{name} = {value} outside 0..{size - 1}")
        return value

    num, line = raw[0]
    head = line.split()
    if len(head) != 4:
        fail(num, "header must be `n m mu K`")
    n, m, mu, K = (number(num, head[0], int), number(num, head[1]),
                   number(num, head[2]), number(num, head[3], int))
    if not (1 <= n <= MAX_DIM and 0 <= K <= MAX_AMBIENT_ORDER):
        fail(num, f"header needs n in 1..{MAX_DIM} and K in 0..{MAX_AMBIENT_ORDER}, "
                  f"got n = {n}, K = {K}")
    gcoeffs = np.zeros((K + 1, n, n))
    fcoeffs = np.zeros(K + 1)
    for num, ln in raw[1:]:
        parts = ln.split()
        if parts[0] == "g" and len(parts) == 5:
            k = index(num, parts[1], K + 1, "k")
            i = index(num, parts[2], n, "i")
            j = index(num, parts[3], n, "j")
            gcoeffs[k, i, j] = number(num, parts[4])
        elif parts[0] == "f" and len(parts) == 3:
            fcoeffs[index(num, parts[1], K + 1, "k")] = number(num, parts[2])
        else:
            fail(num, f"unrecognized row in ambient file: {ln!r}")
    gcoeffs = 0.5 * (gcoeffs + np.swapaxes(gcoeffs, -1, -2))
    return AmbientExpansion(gcoeffs=gcoeffs, fcoeffs=fcoeffs), m, mu, raw[0][0]
