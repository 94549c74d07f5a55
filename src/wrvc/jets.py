"""Truncated multivariate Taylor arithmetic (jets) in up to four variables.

A jet stores the Taylor coefficients of an analytic function at a chart
point: ``coeffs[rank(alpha)] = (1/alpha!) * d^alpha f``.  Monomials are
ranked in graded order (total degree first), so truncating a jet to a
lower order is a prefix slice of its coefficient array.  All arithmetic
is exact for polynomial data up to the truncation order; there is no
finite-difference error anywhere downstream.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError, OrderError

MAX_DIM = 4

_RECIPROCAL_FLOOR = 1e-300


@lru_cache(maxsize=None)
def _monomials(dim: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices with |alpha| <= order, graded, lex within a degree."""
    by_degree: list[list[tuple[int, ...]]] = [[] for _ in range(order + 1)]

    def rec(prefix, remaining_slots, budget):
        if remaining_slots == 0:
            by_degree[sum(prefix)].append(tuple(prefix))
            return
        for k in range(budget, -1, -1):
            rec(prefix + [k], remaining_slots - 1, budget - k)

    rec([], dim, order)
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        out.extend(by_degree[deg])
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_table(dim: int, order: int) -> dict[tuple[int, ...], int]:
    return {alpha: i for i, alpha in enumerate(_monomials(dim, order))}


@lru_cache(maxsize=None)
def _product_triples(dim: int, order: int):
    """Index triples (ia, ib, ic) with monomial(ia) + monomial(ib) = monomial(ic).

    Each pair (ib, ic) occurs at most once, since ia is then determined.
    """
    monos = _monomials(dim, order)
    rank = _rank_table(dim, order)
    ia, ib, ic = [], [], []
    for i, a in enumerate(monos):
        da = sum(a)
        for j, b in enumerate(monos):
            if da + sum(b) > order:
                continue
            c = tuple(x + y for x, y in zip(a, b))
            ia.append(i)
            ib.append(j)
            ic.append(rank[c])
    return np.array(ia), np.array(ib), np.array(ic)


@lru_cache(maxsize=None)
def _derivative_matrices(dim: int, order: int) -> np.ndarray:
    """D of shape (dim, n_coeffs(dim, order-1), n_coeffs(dim, order)) with
    D[l] @ coeffs the coefficients of d/dx_l."""
    monos = _monomials(dim, order)
    rank_lower = _rank_table(dim, order - 1)
    out = np.zeros((dim, n_coeffs(dim, order - 1), len(monos)))
    for i, a in enumerate(monos):
        for axis in range(dim):
            if a[axis]:
                b = list(a)
                b[axis] -= 1
                out[axis, rank_lower[tuple(b)], i] = a[axis]
    return out


@lru_cache(maxsize=None)
def gradient_index(dim: int) -> np.ndarray:
    """Coefficient slots of x_0 .. x_{dim-1}: the first partials at the point."""
    rank = _rank_table(dim, 1)
    return np.array([rank[_unit(dim, i)] for i in range(dim)])


@lru_cache(maxsize=None)
def hessian_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, factors), both (dim, dim): the second partial d_i d_j at the
    point is ``coeffs[slots[i, j]] * factors[i, j]`` (factor alpha! = 2 on
    the diagonal)."""
    rank = _rank_table(dim, 2)
    slots = np.empty((dim, dim), dtype=int)
    for i in range(dim):
        for j in range(dim):
            alpha = tuple(x + y for x, y in zip(_unit(dim, i), _unit(dim, j)))
            slots[i, j] = rank[alpha]
    return slots, 1.0 + np.eye(dim)


def _unit(dim: int, i: int) -> tuple[int, ...]:
    return tuple(int(a == i) for a in range(dim))


def n_coeffs(dim: int, order: int) -> int:
    return math.comb(dim + order, order)


@lru_cache(maxsize=None)
def jet_order(dim: int, nc: int) -> int:
    """The order k with ``n_coeffs(dim, k) == nc``, the inverse of ``n_coeffs``."""
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
    order = 0
    while n_coeffs(dim, order) < nc:
        order += 1
    if n_coeffs(dim, order) != nc:
        raise DimensionMismatch(
            f"{nc} coefficients is no jet order in dimension {dim}"
        )
    return order


# -- coefficient-array arithmetic ---------------------------------------------
#
# A jet-valued tensor is a float array of shape (..., ncoef): the leading axes
# index the tensor entries, the last one the graded monomials of one
# (dim, order).  The functions below act on such arrays directly, so a matrix
# of jets costs a few numpy calls instead of one Python object per entry.


def mul_coeffs(a: np.ndarray, b: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Truncated product of two scalar jets given as coefficient vectors."""
    ia, ib, ic = _product_triples(dim, order)
    return np.bincount(ic, a[ia] * b[ib], minlength=a.shape[-1])


def mult_matrix(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Multiplication operators of jets a (..., ncoef): M (..., ncoef, ncoef)
    with ``M @ b`` the coefficients of ``a * b``."""
    ia, ib, ic = _product_triples(dim, order)
    nc = a.shape[-1]
    out = np.zeros(a.shape[:-1] + (nc, nc))
    out[..., ic, ib] = a[..., ia]
    return out


def jet_matmul_operator(A: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Left multiplication by the jet matrix A (p, q, ncoef) as one
    (p*ncoef, q*ncoef) matrix acting on the column layout of ``to_columns``."""
    p, q, nc = A.shape
    return mult_matrix(A, dim, order).transpose(0, 2, 1, 3).reshape(p * nc, q * nc)


def to_columns(B: np.ndarray) -> np.ndarray:
    """Jet matrix (q, r, ncoef) -> (q*ncoef, r), rows ordered (entry row, slot)."""
    q, r, nc = B.shape
    return B.transpose(0, 2, 1).reshape(q * nc, r)


def from_columns(C: np.ndarray, nc: int) -> np.ndarray:
    """Inverse of ``to_columns``."""
    return C.reshape(-1, nc, C.shape[-1]).transpose(0, 2, 1)


def jet_matmul(A: np.ndarray, B: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Product of jet matrices A (p, q, ncoef) and B (q, r, ncoef)."""
    T = jet_matmul_operator(A, dim, order)
    return from_columns(T @ to_columns(B), A.shape[-1])


def derivative_coeffs(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """All first derivatives of jets a (..., ncoef) at order ``order``:
    shape (dim, ..., n_coeffs(dim, order-1))."""
    D = _derivative_matrices(dim, order)
    return np.einsum("lcb,...b->l...c", D, a)


def compose_coeffs(a: np.ndarray, c: np.ndarray, dim: int, order: int) -> np.ndarray:
    """sum_k c[k] (a - a0)^k for a scalar jet a, by Horner on its
    multiplication matrix (exact to the truncation order)."""
    u = a.copy()
    u[0] = 0.0
    T = mult_matrix(u, dim, order)
    out = np.zeros_like(u)
    out[0] = c[order]
    for k in range(order - 1, -1, -1):
        out = T @ out
        out[0] += c[k]
    return out


_SCALARS = (int, float, np.floating, np.integer)
_new_object = object.__new__


class Jet:
    """Dense truncated Taylor expansion of a scalar at a fixed chart point.

    Jets are immutable values; every operation returns a new jet truncated
    to the smaller operand order.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs=None):
        if not 1 <= dim <= MAX_DIM:
            raise DimensionMismatch(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
        if order < 0:
            raise OrderError(f"jet order must be >= 0, got {order}")
        self.dim = dim
        self.order = order
        size = n_coeffs(dim, order)
        if coeffs is None:
            self.coeffs = np.zeros(size)
        else:
            arr = np.asarray(coeffs, dtype=float)
            if arr.shape != (size,):
                raise DimensionMismatch(
                    f"expected {size} coefficients for dim={dim}, order={order}, "
                    f"got shape {arr.shape}"
                )
            self.coeffs = arr

    @staticmethod
    def _unchecked(dim: int, order: int, coeffs: np.ndarray) -> "Jet":
        """Wrap a float coefficient vector already of length n_coeffs(dim, order)."""
        j = _new_object(Jet)
        j.dim = dim
        j.order = order
        j.coeffs = coeffs
        return j

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: float, dim: int, order: int) -> "Jet":
        j = Jet(dim, order)
        j.coeffs[0] = value
        return j

    @staticmethod
    def variable(index: int, value: float, dim: int, order: int) -> "Jet":
        """The coordinate function x_index centered at the given value."""
        if not 0 <= index < dim:
            raise DimensionMismatch(
                f"variable index {index} out of range for dim {dim}"
            )
        j = Jet(dim, order)
        j.coeffs[0] = value
        if order >= 1:
            j.coeffs[1 + index] = 1.0
        return j

    # -- basic views --------------------------------------------------

    @property
    def value(self) -> float:
        """The function value at the base point (constant term)."""
        return float(self.coeffs[0])

    def partial(self, multi_index) -> float:
        """Value of the mixed partial d^alpha at the base point."""
        alpha = tuple(int(a) for a in multi_index)
        if len(alpha) != self.dim or any(a < 0 for a in alpha):
            raise DimensionMismatch(f"bad multi-index {alpha} for dim {self.dim}")
        if sum(alpha) > self.order:
            raise OrderError(
                f"partial of total degree {sum(alpha)} exceeds jet order {self.order}"
            )
        rank = _rank_table(self.dim, self.order)[alpha]
        fact = 1.0
        for a in alpha:
            fact *= math.factorial(a)
        return float(self.coeffs[rank] * fact)

    def derivative(self, axis: int) -> "Jet":
        """Jet of the partial derivative along one axis (order drops by one)."""
        if not 0 <= axis < self.dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {self.dim}")
        if self.order == 0:
            raise OrderError("cannot differentiate an order-0 jet")
        D = _derivative_matrices(self.dim, self.order)[axis]
        return Jet._unchecked(self.dim, self.order - 1, D @ self.coeffs)

    # -- ring operations ----------------------------------------------

    def _common(self, other: "Jet"):
        """Both coefficient vectors at the smaller order, and that order."""
        if other.dim != self.dim:
            raise DimensionMismatch(f"jet dims differ: {self.dim} vs {other.dim}")
        if other.order == self.order:
            return self.coeffs, other.coeffs, self.order
        k = min(self.order, other.order)
        nc = n_coeffs(self.dim, k)
        return self.coeffs[:nc], other.coeffs[:nc], k

    def _shifted(self, value: float) -> "Jet":
        out = self.coeffs.copy()
        out[0] += value
        return Jet._unchecked(self.dim, self.order, out)

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._common(other)
            return Jet._unchecked(self.dim, k, a + b)
        if isinstance(other, _SCALARS):
            return self._shifted(float(other))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet._unchecked(self.dim, self.order, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._common(other)
            return Jet._unchecked(self.dim, k, a - b)
        if isinstance(other, _SCALARS):
            return self._shifted(-float(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b, k = self._common(other)
            return Jet._unchecked(self.dim, k, mul_coeffs(a, b, self.dim, k))
        if isinstance(other, _SCALARS):
            return Jet._unchecked(self.dim, self.order, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        if abs(self.value) <= _RECIPROCAL_FLOOR:
            raise DomainError("reciprocal of a jet with (near-)zero constant term")
        return self.apply("pow", -1.0)

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return Jet._unchecked(self.dim, self.order, self.coeffs / float(other))
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            n = int(exponent)
            if n < 0:
                return self.reciprocal() ** (-n)
            dim, order = self.dim, self.order
            result = np.zeros_like(self.coeffs)
            result[0] = 1.0
            base = self.coeffs
            while n:
                if n & 1:
                    result = mul_coeffs(result, base, dim, order)
                if n > 1:
                    base = mul_coeffs(base, base, dim, order)
                n >>= 1
            return Jet._unchecked(dim, order, result)
        return self.apply("pow", float(exponent))

    # -- analytic composition ------------------------------------------

    def apply(self, fn: str, alpha: float | None = None) -> "Jet":
        """Compose a named analytic function with this jet.

        Univariate Taylor coefficients of ``fn`` at the constant term are
        composed with the zero-constant part by Horner evaluation, which is
        exact to the truncation order.
        """
        c = _univariate_coeffs(fn, self.value, self.order, alpha)
        return Jet._unchecked(
            self.dim, self.order,
            compose_coeffs(self.coeffs, c, self.dim, self.order),
        )

    def exp(self):
        return self.apply("exp")

    def log(self):
        return self.apply("log")

    def sqrt(self):
        return self.apply("sqrt")

    def sin(self):
        return self.apply("sin")

    def cos(self):
        return self.apply("cos")

    def __repr__(self):
        monos = _monomials(self.dim, self.order)
        names = "xyzw"
        terms = []
        for a, c in zip(monos, self.coeffs):
            if c == 0.0:
                continue
            mono = "".join(
                names[i] + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(a)
                if p > 0
            )
            terms.append(f"{c:g}{('*' + mono) if mono else ''}")
        body = " + ".join(terms) if terms else "0"
        return f"Jet(dim={self.dim}, order={self.order}: {body})"


def _univariate_coeffs(fn: str, a0: float, order: int, alpha: float | None):
    """Taylor coefficients c_k = fn^(k)(a0)/k! for k = 0..order."""
    k = np.arange(order + 1)
    if fn == "exp":
        return np.exp(a0) / _factorials(order)
    if fn == "log":
        if a0 <= 0.0:
            raise DomainError(f"log of non-positive constant term {a0}")
        c = np.empty(order + 1)
        c[0] = math.log(a0)
        if order >= 1:
            kk = k[1:]
            c[1:] = ((-1.0) ** (kk + 1)) / (kk * a0**kk)
        return c
    if fn == "sqrt":
        if a0 <= 0.0:
            raise DomainError(f"sqrt of non-positive constant term {a0}")
        return _pow_coeffs(a0, 0.5, order)
    if fn == "sin":
        return np.sin(a0 + k * math.pi / 2) / _factorials(order)
    if fn == "cos":
        return np.cos(a0 + k * math.pi / 2) / _factorials(order)
    if fn == "pow":
        if alpha is None:
            raise DomainError("pow requires an exponent")
        return _pow_coeffs(a0, float(alpha), order)
    raise DomainError(f"unknown analytic function {fn!r}")


def _pow_coeffs(a0: float, alpha: float, order: int):
    is_integer = float(alpha).is_integer()
    if not is_integer and a0 <= 0.0:
        raise DomainError(
            f"pow({alpha}) needs a positive constant term, got {a0}"
        )
    if is_integer and alpha < 0 and abs(a0) <= _RECIPROCAL_FLOOR:
        raise DomainError("negative power of a jet with (near-)zero constant term")
    c = np.zeros(order + 1)
    binom = 1.0
    for j in range(order + 1):
        if is_integer and alpha >= 0 and j > alpha:
            break  # binomial coefficient vanishes; avoids 0^negative
        c[j] = binom * a0 ** (alpha - j)
        binom *= (alpha - j) / (j + 1)
    return c


@lru_cache(maxsize=None)
def _factorials(order: int):
    return np.array([math.factorial(i) for i in range(order + 1)], dtype=float)
