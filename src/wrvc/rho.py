"""Truncated power series in the expansion parameter rho and the ambient
coefficient pipeline built on them.

A series at one point is an array of Taylor coefficients c_0..c_K, order
axis first (entry k is (1/k!) d_rho^k at 0): ``(K+1,)`` is a scalar series,
``(K+1, n, n)`` a matrix series.  Each operation is one kernel on such
arrays, and each ``RhoSeries`` method one call of it.  The product
``_cauchy`` is that of one-variable jets: it gathers the pairs (i, k - i)
of ``jets._product_triples(1, K)`` into a single multiply and adds each
order's pairs by a 0/1 matrix, both from one cached lookup per K.

The ambient data of a structure at a point is an ``AmbientExpansion``:
coefficient arrays of the metric family g_rho and density family f_rho.
From it this module extracts

* the volume coefficients v_k of (f_rho/f)^m (det g_rho / det g)^{1/2},
* the curvature-normal series Lambda^(k) and its rho=0 restrictions (the
  extended obstruction tensors),
* the self-consistency residual tying f'' to the trace of Lambda^(1),
* the second-order operator coefficients L_k from the series
  v(rho) * int_0^rho g^{ij}.

All of these read a few arrays that an expansion computes once, on first
use, and keeps read-only: g_rho^{-1}, g_rho' g_rho^{-1}, Lambda^(1), and per
m the volume series and the L series; none builds a ``RhoSeries``.  The
volume series, read through ``volume_coefficients``, takes log(det g_rho /
det g) from Jacobi's formula, as int_0^rho tr(g' g^{-1}), so it needs no
determinant; ``RhoSeries.matrix_det`` (a Laplace expansion) is the
independent route that tests compare it with.

When n+m is an even integer the expansion only determines orders
k <= (n+m)/2; requests beyond that raise ``DeterminacyError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import DeterminacyError, DimensionMismatch, DomainError, OrderError
from .jets import _product_triples

_LEADING_TOL = 1e-300
_ODD_POWER_TOL = 1e-12   # odd r-power content poincare_to_ambient accepts
MAX_AMBIENT_ORDER = 32   # largest K taken from a file header or the command line
MAX_DIM = 4              # largest n taken from a model or a file header


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _cauchy_tables(K: int):
    """The pairs (i, k - i) of ``_product_triples(1, K)`` as two index
    arrays, and the (K+1, pairs) 0/1 matrix that adds each order's run."""
    i, j, k, _ = _product_triples(1, K)
    sums = np.zeros((K + 1, k.size))
    sums[k, np.arange(k.size)] = 1.0
    return i, j, _read_only(sums)


def _cauchy(a: np.ndarray, b: np.ndarray, matmul: bool = False) -> np.ndarray:
    """Truncated Cauchy product c_k = sum_i a_i b_{k-i} of two coefficient
    arrays ``(K+1, ...)``, truncated at the lower order: the product of
    one-variable jets, with the order axis first.  Coefficients multiply
    elementwise with broadcasting, or as matrices when ``matmul``."""
    K = min(a.shape[0], b.shape[0]) - 1
    i, j, sums = _cauchy_tables(K)
    a, b = a.take(i, axis=0), b.take(j, axis=0)
    prod = np.matmul(a, b) if matmul else a * b
    # a 0/1 matrix, not reduceat: 0 * inf turns an overflow into nan in every order;
    # reduceat let a flat model with lambda = 1e60 exit 0 with obstruction norms ~3.7e224
    return (sums @ prod.reshape(i.size, -1)).reshape((K + 1,) + prod.shape[1:])


@lru_cache(maxsize=None)
def _orders(start: int, stop: int, ndim: int) -> np.ndarray:
    """start..stop-1, read-only, shaped to scale an ``ndim``-array's order axis."""
    return _read_only(np.arange(start, stop, dtype=float).reshape((-1,) + (1,) * (ndim - 1)))


def _derivative(a: np.ndarray) -> np.ndarray:
    """d/d rho; the truncation order drops by one."""
    if a.shape[0] < 2:
        raise OrderError("cannot differentiate an order-0 series")
    return a[1:] * _orders(1, a.shape[0], a.ndim)


def _antiderivative(a: np.ndarray) -> np.ndarray:
    """int_0^rho; vanishing constant term, order grows by one."""
    return np.concatenate([np.zeros((1,) + a.shape[1:]), a / _orders(1, len(a) + 1, a.ndim)])


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


# _scalar_exp and _scalar_log keep their recurrences: through jets.compose_coeffs
# the qe_sphere n=3 v_3 read 0.15624999999999994 for 0.15625
def _scalar_exp(a: np.ndarray) -> np.ndarray:
    ja = a * _orders(0, a.shape[0], 1)
    out = np.empty_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, a.shape[0]):
        out[k] = np.einsum("i,i->", ja[1 : k + 1], out[k - 1 :: -1]) / k
    return out


def _scalar_log(a: np.ndarray) -> np.ndarray:
    if a[0] <= 0.0:
        raise DomainError("series log needs a positive leading coefficient")
    out = np.empty_like(a)
    jout = np.empty_like(a)   # j * out[j]
    out[0] = np.log(a[0])
    for k in range(1, a.shape[0]):
        acc = np.einsum("i,i->", jout[1:k], a[k - 1 : 0 : -1])
        out[k] = (a[k] - acc / k) / a[0]
        jout[k] = k * out[k]
    return out


def _matrix_inverse(a: np.ndarray) -> np.ndarray:
    # the order recursion takes 33 us where a gathered Neumann inverse took 84 us
    try:
        b0 = np.linalg.inv(a[0])
    except np.linalg.LinAlgError:
        raise DomainError("series inverse needs an invertible leading matrix")
    out = np.empty_like(a)
    out[0], minus_b0 = b0, -b0
    for k in range(1, a.shape[0]):
        out[k] = minus_b0 @ np.einsum("ijl,ilm->jm", a[1 : k + 1], out[k - 1 :: -1])
    return out


def _series_method(kernel, kind: str | None = None):
    """The ``RhoSeries`` method that calls ``kernel`` (on a ``kind`` series)."""
    def method(self) -> "RhoSeries":
        if kind is not None:
            self._require(kind)
        return RhoSeries(kernel(self.coeffs))
    method.__name__, method.__doc__ = kernel.__name__[1:], kernel.__doc__
    return method


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
        levels.append((n - s, _read_only(cols), _read_only(sub), _read_only(signed)))
        prev = {S: idx for idx, S in enumerate(sets)}
    return levels


class RhoSeries:
    """Polynomial in rho at one point, truncated at order K: coefficients
    of shape ``(K+1,)`` make a scalar series, ``(K+1, n, n)`` a matrix
    series, and any other shape is rejected.  The arithmetic is the
    module's kernels."""

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        shape = self.coeffs.shape
        if len(shape) == 1:
            self.kind = "scalar"
        elif len(shape) == 3 and shape[1] == shape[2]:
            self.kind = "matrix"
        else:
            raise DimensionMismatch(
                f"series coefficients must have shape (K+1,) or (K+1, n, n), "
                f"got {shape}"
            )

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
            return RhoSeries(self.coeffs[: K + 1] + other.coeffs[: K + 1])
        out = self.coeffs.copy()
        out[0] = out[0] + other
        return RhoSeries(out)

    __radd__ = __add__

    def __neg__(self):
        return RhoSeries(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RhoSeries) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RhoSeries):
            return RhoSeries(self.coeffs * float(other))
        a, b = self.coeffs, other.coeffs
        if self.kind == other.kind:
            return RhoSeries(_cauchy(a, b, matmul=self.kind == "matrix"))
        if self.kind == "scalar":
            a = a[:, None, None]
        else:
            b = b[:, None, None]
        return RhoSeries(_cauchy(a, b))

    __rmul__ = __mul__

    # -- calculus and heads: one kernel call each ----------------------------

    derivative = _series_method(_derivative)
    antiderivative = _series_method(_antiderivative)
    scalar_exp = _series_method(_scalar_exp, "scalar")
    scalar_log = _series_method(_scalar_log, "scalar")
    matrix_inverse = _series_method(_matrix_inverse, "matrix")
    symmetrize = _series_method(_symmetrize, "matrix")

    def scalar_inverse(self) -> "RhoSeries":
        self._require("scalar")
        a = self.coeffs
        if abs(a[0]) <= _LEADING_TOL:
            raise DomainError("series inverse needs a nonzero leading coefficient")
        out = np.empty_like(a)
        out[0] = 1.0 / a[0]
        for k in range(1, self.K + 1):
            out[k] = -np.einsum("i,i->", a[1 : k + 1], out[k - 1 :: -1]) / a[0]
        return RhoSeries(out)

    def matrix_det(self) -> "RhoSeries":
        """Laplace expansion down the rows: the minor on the trailing rows
        is built once per column set, and each level is one Cauchy product
        of its stacked terms.  A trailing axis of length 1 makes each
        level's signed sum over terms a matrix product.  It stays the oracle
        (the tracer's rho.matrix_det span wraps it): a log-det route missed
        the permutation expansion by 2e-12 at n = 1, K = 4."""
        self._require("matrix")
        a = self.coeffs[..., None]
        minors = a[:, -1]
        for row, cols, sub, signed in _laplace_tables(self.n):
            minors = signed @ _cauchy(a[:, row, cols], minors[:, sub])
        return RhoSeries(minors[:, 0, 0])

    def _require(self, kind: str):
        if self.kind != kind:
            raise DimensionMismatch(f"operation needs a {kind} series")

    def __repr__(self):
        return f"RhoSeries(kind={self.kind}, K={self.K}, shape={self.coeffs.shape})"


# -- ambient expansions -----------------------------------------------------


@dataclass(frozen=True)
class AmbientExpansion:
    """Taylor data of (g_rho, f_rho) at one point.

    ``gcoeffs[k]`` and ``fcoeffs[k]`` are Taylor coefficients
    (1/k!) d_rho^k at rho = 0, so gcoeffs[0] is the base metric and
    fcoeffs[0] the base density.  The coefficients must be finite, the base
    density positive and the base metric positive definite.

    Both arrays are copied at construction and are read-only, and so is the
    expansion, so its derived series (g_rho^{-1}, g_rho' g_rho^{-1},
    Lambda^(1), and per m the volume series and the L series) are each
    computed once, on first use, as read-only coefficient arrays.
    """

    gcoeffs: np.ndarray   # (K+1, n, n)
    fcoeffs: np.ndarray   # (K+1,)
    _by_m: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("gcoeffs", "fcoeffs"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        g_shape, f_shape = self.gcoeffs.shape, self.fcoeffs.shape
        if len(g_shape) != 3 or g_shape[1] != g_shape[2] or f_shape != g_shape[:1]:
            raise DimensionMismatch(
                f"an expansion needs gcoeffs (K+1, n, n) and fcoeffs (K+1,), "
                f"got {g_shape} and {f_shape}"
            )
        if not (np.isfinite(self.gcoeffs).all() and np.isfinite(self.fcoeffs).all()):
            raise DomainError("expansion coefficients must be finite")
        if self.fcoeffs[0] <= 0.0:
            raise DomainError("base density must be positive")
        if np.linalg.eigvalsh(self.gcoeffs[0]).min() <= 0.0:
            raise DomainError("base metric must be positive definite")

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
    def f(self) -> float:
        return self.fcoeffs[0]

    # -- derived series, each computed once --------------------------------

    @cached_property
    def _ginv(self) -> np.ndarray:
        """g_rho^{-1}."""
        return _read_only(_matrix_inverse(self.gcoeffs))

    @cached_property
    def _gp_ginv(self) -> np.ndarray:
        """g_rho' g_rho^{-1}, order K - 1; g^{-1} g' is its transpose."""
        return _read_only(_cauchy(_derivative(self.gcoeffs), self._ginv, matmul=True))

    @cached_property
    def _lambda_one(self) -> np.ndarray:
        """Lambda^(1) = (g'' - g' g^{-1} g' / 2) / 2, order K - 2."""
        gp = _derivative(self.gcoeffs)
        quad = _cauchy(self._gp_ginv, gp, matmul=True) * 0.5
        return _read_only(_symmetrize((_derivative(gp) - quad[: len(gp) - 1]) * 0.5))

    def _volume(self, m: float) -> np.ndarray:
        """(f_rho/f)^m (det g_rho/det g)^{1/2}, as exp(m log(f_rho/f)
        + log(det g_rho/det g)/2), where Jacobi's formula gives
        log(det g_rho/det g) = int_0^rho tr(g' g^{-1})."""
        key = ("volume", _dimensional(m))
        if key not in self._by_m:
            exponent = m * _scalar_log(self.fcoeffs)
            if self.K:
                exponent += 0.5 * _antiderivative(np.trace(self._gp_ginv, axis1=1, axis2=2))
            exponent[0] = 0.0     # both logs of ratios vanish at rho = 0
            self._by_m[key] = _read_only(_scalar_exp(exponent))
        return self._by_m[key]

    def _l_series(self, m: float) -> np.ndarray:
        """v(rho) int_0^rho g^{ij}(u) du."""
        key = ("l", float(m))
        if key not in self._by_m:
            self._by_m[key] = _read_only(
                _cauchy(self._volume(m)[:, None, None], _antiderivative(self._ginv)))
        return self._by_m[key]


@dataclass
class VolumeCoefficients:
    """v_1..v_K extracted from an expansion."""

    v: np.ndarray

    def __getitem__(self, k: int):
        if not 1 <= k <= self.v.shape[0]:
            raise OrderError(f"v_{k} not available (have 1..{self.v.shape[0]})")
        return self.v[k - 1]

    def __len__(self):
        return self.v.shape[0]


def _dimensional(m: float) -> float:
    """m as a float; a ``DomainError`` unless it is finite and >= 0."""
    if not (math.isfinite(m) and m >= 0):
        raise DomainError(f"dimensional parameter m must be finite and >= 0, got {m}")
    return float(m)


def determinacy_cap(n: int, m: float) -> float | None:
    """(n+m)/2 when n+m is an even natural number, else None (no cap); m
    must be finite and >= 0."""
    nm = n + _dimensional(m)
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


def volume_coefficients(a: AmbientExpansion, m: float) -> VolumeCoefficients:
    """Extract v_1..v_K; errors when K exceeds the determinacy cap."""
    if a.K < 1:
        raise OrderError("expansion must carry at least one rho order")
    check_determinacy(a.n, m, a.K)
    return VolumeCoefficients(v=a._volume(m)[1:])


def lambda_one_series(a: AmbientExpansion) -> RhoSeries:
    """Lambda^(1)(rho) = (g'' - g' g^{-1} g' / 2) / 2 as a matrix series."""
    if a.K < 2:
        raise OrderError("Lambda^(1) needs K >= 2")
    return RhoSeries(a._lambda_one)


@dataclass
class ObstructionSet:
    """Restrictions Omega^(k) = Lambda^(k)(0) of the curvature-normal series."""

    omegas: list = field(default_factory=list)      # Omega^(1)..Omega^(K-1)

    def trace_norms(self, base_g: np.ndarray) -> np.ndarray:
        """|g^{ij} Omega^(k)_{ij}| for each k."""
        ginv = np.linalg.inv(base_g)
        return np.array([abs(np.einsum("ij,ij->", ginv, om)) for om in self.omegas])

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
    # g^{-1} g' is the transpose of g' g^{-1}, so the correction is the
    # symmetric part of g' g^{-1} Lambda^(k)
    gp_ginv = a._gp_ginv
    lam = a._lambda_one
    omegas = [lam[0].copy()]
    for _ in range(2, a.K):
        step = _cauchy(gp_ginv, lam, matmul=True)[: len(lam) - 1]
        lam = _derivative(lam) - _symmetrize(step)
        omegas.append(lam[0].copy())
    return ObstructionSet(omegas)


def f_second_residual(a: AmbientExpansion, m: float):
    """|f'' + (f/m) g^{ij} Lambda^(1)_{ij}| at rho = 0.

    fcoeffs stores Taylor coefficients, so f'' = 2 fcoeffs[2].
    """
    if m <= 0:
        raise DomainError("self-consistency residual needs m > 0")
    if a.K < 2:
        raise OrderError("self-consistency residual needs K >= 2")
    trace = np.einsum("ij,ij->", a._ginv[0], a._lambda_one[0])
    return abs(2.0 * a.fcoeffs[2] + (a.f / m) * trace)


def l_operator(a: AmbientExpansion, m: float, k: int) -> np.ndarray:
    """Minus the k-th Taylor coefficient of v(rho) int_0^rho g^{ij}(u) du.

    Returns the contravariant symmetric matrix (L_k)^{ij}.
    """
    if not 1 <= k <= a.K:
        raise OrderError(f"k = {k} outside 1..{a.K}")
    check_determinacy(a.n, m, k)
    return -a._l_series(m)[k]


def l_operator_series(a: AmbientExpansion, m: float) -> RhoSeries:
    """The matrix series v(rho) * int_0^rho g^{ij}(u) du (order K);
    computed once per (expansion, m), with read-only coefficients."""
    return RhoSeries(a._l_series(m))


def poincare_to_ambient(r_coeffs) -> RhoSeries:
    """Substitute r^2 = -2 rho into an even series in r.

    The coefficient of r^{2k} becomes the coefficient of rho^k times
    (-2)^k.  Odd-power content above ``_ODD_POWER_TOL`` is rejected.
    """
    r = np.asarray(r_coeffs, dtype=float)
    if r.ndim != 1:
        raise DimensionMismatch("expected a 1-D array of r-coefficients")
    odd = r[1::2]
    if odd.size and np.max(np.abs(odd)) > _ODD_POWER_TOL:
        raise DomainError(f"odd powers of r present (max magnitude {np.max(np.abs(odd)):g})")
    even = r[0::2]
    return RhoSeries(even * (-2.0) ** np.arange(even.size, dtype=float))


# -- plain-text coefficient files ---------------------------------------------


def save_ambient_file(a: AmbientExpansion, m: float, mu: float, path):
    """Write `n m mu K` then `g k i j value` / `f k value` rows.  The metric
    rows are its symmetric part G/2 + G^T/2 (halves first, so entries near
    the float limit do not overflow): a coefficient such as P g^{-1} P is
    symmetric only up to rounding, and ``load_ambient_file`` rejects a
    (j, i) row that differs from the (i, j) row."""
    g = 0.5 * a.gcoeffs + 0.5 * np.swapaxes(a.gcoeffs, -1, -2)
    lines = ([f"{a.n} {m:.17g} {mu:.17g} {a.K}"]
             + [f"g {k} {i} {j} {g[k, i, j]:.17g}" for k, i, j in np.ndindex(g.shape)]
             + [f"f {k} {value:.17g}" for k, value in enumerate(a.fcoeffs)])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_ambient_file(path, model=None):
    """Read a coefficient file; returns (expansion, m, mu).

    The header must match ``model`` (a ``ModelSpec``) when one is given.  A
    ``g k i j`` row sets both (i, j) and (j, i), so one triangle suffices; a
    later row for the same (k, i, j) overwrites it.  A malformed header or
    row, or a (k, j, i) row that differs from the (k, i, j) row, raises
    ``DomainError`` naming ``path:line``; base data that ``AmbientExpansion``
    rejects names the header's line."""
    try:
        with open(path) as fh:
            raw = [(num, ln.strip()) for num, ln in enumerate(fh, start=1)
                   if ln.strip() and not ln.startswith("#")]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read ambient coefficient file {path}: "
                          f"{getattr(exc, 'strerror', None) or exc}")
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
    if model is not None and (n, m, mu) != (model.n, model.m, model.mu):
        fail(num, f"header n m mu = {n} {m:g} {mu:g} does not match model "
                  f"{model.name!r} (n m mu = {model.n} {model.m:g} {model.mu:g})")
    gcoeffs, fcoeffs = np.zeros((K + 1, n, n)), np.zeros(K + 1)
    rows = {}   # (k, i, j) -> the value its last row gave
    for num, ln in raw[1:]:
        parts = ln.split()
        if parts[0] == "g" and len(parts) == 5:
            k = index(num, parts[1], K + 1, "k")
            i = index(num, parts[2], n, "i")
            j = index(num, parts[3], n, "j")
            value = number(num, parts[4])
            if i != j and rows.get((k, j, i), value) != value:
                fail(num, f"g {k} {i} {j} = {value:.17g} differs from "
                          f"g {k} {j} {i} = {rows[k, j, i]:.17g}; the metric is symmetric")
            # a row sets both triangles, so one triangle reads as written
            rows[k, i, j] = gcoeffs[k, i, j] = gcoeffs[k, j, i] = value
        elif parts[0] == "f" and len(parts) == 3:
            fcoeffs[index(num, parts[1], K + 1, "k")] = number(num, parts[2])
        else:
            fail(num, f"unrecognized row in ambient file: {ln!r}")
    try:
        expansion = AmbientExpansion(gcoeffs=gcoeffs, fcoeffs=fcoeffs)
    except DomainError as exc:
        fail(raw[0][0], str(exc))
    return expansion, m, mu
