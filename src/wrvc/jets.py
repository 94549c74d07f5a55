"""Truncated multivariate Taylor arithmetic (jets) in any number of variables.

A jet stores the Taylor coefficients of an analytic function at a chart
point: ``coeffs[rank(alpha)] = (1/alpha!) * d^alpha f``.  Monomials are
ranked in graded order (total degree first, descending lex within a
degree; ``_exponents``), so truncating a jet to a lower order is a prefix
slice of its coefficient array.  Any dimension works here while
(order + 1)^dim < 2^63 (the table keys); the bound n <= 4 on a model is
an input bound, ``rho.MAX_DIM``.  All arithmetic is exact for polynomial
data up to the truncation order; there is no finite-difference error
anywhere downstream.

The one product structure is ``_product_triples(dim, order)``: every pair
of monomials whose product survives the truncation, sorted by product
slot.  A scalar product gathers both factors by it and adds by
``bincount`` (``mul_coeffs``); jet arrays multiply entrywise or as jet
matrices by gathering, contracting and adding each slot's run of
triples with one ``reduceat`` (``product_coeffs``).  No multiplication
operator of (ncoef, ncoef) entries is built, and composition with
exp, log and powers is Horner on the scalar product (``compose_coeffs``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, DomainError, OrderError

_RECIPROCAL_FLOOR = 1e-300


@lru_cache(maxsize=None)
def _exponents(dim: int, order: int) -> np.ndarray:
    """(ncoef, dim) exponents of the monomials of degree <= order, graded,
    descending lex within a degree: the one table that fixes the
    coefficient layout.  Degree k is degree k-1 times x_0, then its rows
    free of x_0 times x_1, then those free of x_0, x_1 times x_2, ..."""
    if order == 0:
        return np.zeros((1, dim), dtype=int)
    E = _exponents(dim, order - 1)
    top = E[E.sum(axis=1) == order - 1]
    return np.concatenate([E] + [top[~top[:, :i].any(axis=1)] + np.eye(dim, dtype=int)[i]
                                 for i in range(dim)])


@lru_cache(maxsize=None)
def _sorted_keys(dim: int, order: int):
    """Digit weights of the radix-(order + 1) row keys, the table rows' keys
    sorted, and the rank of each; ``ravel_multi_index`` raises on overflow."""
    keys = np.ravel_multi_index(_exponents(dim, order).T, (order + 1,) * dim)
    perm = np.argsort(keys)
    return (order + 1) ** np.arange(dim - 1, -1, -1), keys[perm], perm


def _rank(rows: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Table ranks of exponent rows (..., dim) of degree <= order."""
    weights, keys, perm = _sorted_keys(dim, order)
    return perm[np.searchsorted(keys, rows @ weights)]


@lru_cache(maxsize=None)
def _product_triples(dim: int, order: int):
    """Index triples (ia, ib, ic) with E[ia] + E[ib] = E[ic] (E the exponent
    table), one per pair of total degree <= order, sorted by the product slot
    ic and row-major in (ia, ib) within a slot, and ``starts``, the index of
    each slot's first triple.  The partners of ia are the table's prefix of
    degree <= order - deg(ia)."""
    E = _exponents(dim, order)
    deg = E.sum(axis=1)
    count = np.searchsorted(deg, order - deg, side="right")
    ia = np.repeat(np.arange(len(E)), count)
    ib = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    ic = _rank(E[ia] + E[ib], dim, order)
    by_slot = np.argsort(ic, kind="stable")
    ia, ib, ic = ia[by_slot], ib[by_slot], ic[by_slot]
    starts = np.searchsorted(ic, np.arange(len(E)))
    for arr in (ia, ib, ic, starts):
        arr.flags.writeable = False
    return ia, ib, ic, starts


@lru_cache(maxsize=None)
def _raised(dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, factors), both (dim, n_coeffs(dim, order - 1)).  Slot c of the
    lower order holds x^E[c]; d/dx_l reaches it from x^(E[c] + e_l) with the
    factor E[c]_l + 1, so d/dx_l of a jet is ``coeffs[..., slots[l]] * factors[l]``."""
    E = _exponents(dim, order - 1)
    return _rank(E + np.eye(dim, dtype=int)[:, None, :], dim, order), E.T + 1.0


@lru_cache(maxsize=None)
def gradient_index(dim: int) -> np.ndarray:
    """Coefficient slots of x_0 .. x_{dim-1}: the first partials at the point."""
    return _raised(dim, 1)[0][:, 0]


@lru_cache(maxsize=None)
def hessian_index(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(slots, factors), both (dim, dim): d_i d_j at the point is
    ``coeffs[slots[i, j]] * factors[i, j]`` (copies: strided slots gather ~3x slower)."""
    slots, factors = _raised(dim, 2)
    return slots[:, 1:dim + 1].copy(), factors[:, 1:dim + 1].copy()


def n_coeffs(dim: int, order: int) -> int:
    return math.comb(dim + order, order)


@lru_cache(maxsize=None)
def jet_order(dim: int, nc: int) -> int:
    """The order k with ``n_coeffs(dim, k) == nc``, the inverse of ``n_coeffs``."""
    if dim < 1:
        raise DimensionMismatch(f"jet dimension must be >= 1, got {dim}")
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
    # bincount, not reduceat: reduceat was ~15% slower at (3, 4) and moved ring residuals
    ia, ib, ic, _ = _product_triples(dim, order)
    return np.bincount(ic, a[ia] * b[ib], minlength=a.shape[-1])


def product_coeffs(a: np.ndarray, b: np.ndarray, dim: int, order: int,
                   matmul: bool = False) -> np.ndarray:
    """Truncated products of jet arrays a and b (..., ncoef) of one (dim,
    order): entrywise with broadcasting, or as jet matrices (p, q, ncoef)
    and (q, r, ncoef) when ``matmul``.  The gathered terms of each product
    slot are one run of the triples, added by one ``reduceat``."""
    ia, ib, _, starts = _product_triples(dim, order)
    # take, not a[..., ia]: 1.3-3x faster on the last axis at n = 3, orders 1-4
    a, b = a.take(ia, axis=-1), b.take(ib, axis=-1)
    terms = np.einsum("ijt,jkt->ikt", a, b) if matmul else a * b
    return np.add.reduceat(terms, starts, axis=-1)


def derivative_coeffs(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """All first derivatives of jets a (..., ncoef) at order ``order``:
    shape (dim, ..., n_coeffs(dim, order-1))."""
    slots, factors = _raised(dim, order)
    # + 0.0 turns a gathered -0.0 into +0.0, as a sum with exact zeros would
    d = a[..., slots] * factors + 0.0
    return d.transpose(d.ndim - 2, *range(d.ndim - 2), d.ndim - 1)


def compose_coeffs(a: np.ndarray, c: np.ndarray, dim: int, order: int) -> np.ndarray:
    """sum_k c[k] (a - a0)^k for a scalar jet a, by Horner on ``mul_coeffs``
    (exact to the truncation order)."""
    u = a.copy()
    u[0] = 0.0
    out = np.zeros_like(u)
    out[0] = c[order]
    for k in range(order - 1, -1, -1):
        out = mul_coeffs(u, out, dim, order)
        out[0] += c[k]
    return out


_SCALARS = (int, float, np.floating, np.integer)
_new_object = object.__new__


class Jet:
    """Dense truncated Taylor expansion of a scalar at a fixed chart point.

    Jets are immutable values; every operation returns a new jet truncated
    to the smaller operand order.  ``__init__``, ``__mul__``, ``__rmul__``
    and ``apply`` keep their names: perfbench/tracing.py counts them.
    """

    __slots__ = ("dim", "order", "coeffs")

    def __init__(self, dim: int, order: int, coeffs=None):
        if dim < 1:
            raise DimensionMismatch(f"jet dimension must be >= 1, got {dim}")
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
        rank = _rank(alpha, self.dim, self.order)
        return float(self.coeffs[rank] * math.prod(map(math.factorial, alpha)))

    def derivative(self, axis: int) -> "Jet":
        """Jet of the partial derivative along one axis (order drops by one)."""
        if not 0 <= axis < self.dim:
            raise DimensionMismatch(f"axis {axis} out of range for dim {self.dim}")
        if self.order == 0:
            raise OrderError("cannot differentiate an order-0 jet")
        d = derivative_coeffs(self.coeffs, self.dim, self.order)[axis]
        return Jet._unchecked(self.dim, self.order - 1, d)

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
            if n == 0:
                one = np.zeros_like(self.coeffs)
                one[0] = 1.0
                return Jet._unchecked(self.dim, self.order, one)
            # binary powering that starts from the base: x^2 is one product
            dim, order = self.dim, self.order
            result = None
            base = self.coeffs
            while True:
                if n & 1:
                    result = base if result is None else mul_coeffs(result, base, dim, order)
                n >>= 1
                if not n:
                    break
                base = mul_coeffs(base, base, dim, order)
            return Jet._unchecked(dim, order, result.copy() if result is self.coeffs
                                  else result)
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
        names = "xyzw" if self.dim <= 4 else [f"x{i}" for i in range(self.dim)]
        terms = []
        for a, c in zip(_exponents(self.dim, self.order).tolist(), self.coeffs):
            if c != 0.0:
                mono = "".join(names[i] + (f"^{p}" if p > 1 else "")
                               for i, p in enumerate(a) if p)
                terms.append(f"{c:g}*{mono}" if mono else f"{c:g}")
        return f"Jet(dim={self.dim}, order={self.order}: {' + '.join(terms) or '0'})"


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
