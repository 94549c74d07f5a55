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
``bincount`` (``mul_coeffs``; a stack of scalar jets offsets each row's
slots); jet arrays multiply by gathering, contracting over their tensor
axes by any einsum subscripts, and adding each slot's run of triples with
one ``reduceat`` (``contract_coeffs``: jet-matrix products, scaling by a
scalar jet, Gamma times Gamma).  No multiplication operator of (ncoef,
ncoef) entries is built, and composition with exp, log and powers is
Horner on the scalar product (``compose_coeffs``; ``compose_rows``
composes exp or log with every row of a stack at its own constant term).
``contract_coeffs`` and ``derivative_coeffs`` keep an object dtype, so
``Fraction`` coefficients stay exact; ``mul_coeffs`` adds by ``bincount``,
so it and all built on it (``compose_coeffs``, ``Jet``) are float.
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
    return _rank(E + np.eye(dim, dtype=int)[:, None, :], dim, order), E.T + 1


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
# index the tensor entries (and, before them, the structures of a stack), the
# last one the graded monomials of one (dim, order).  The functions below act
# on such arrays directly, so a matrix of jets costs a few numpy calls instead
# of one Python object per entry, and each row of a stack gets the arithmetic
# it would get alone.


def mul_coeffs(a: np.ndarray, b: np.ndarray, dim: int, order: int) -> np.ndarray:
    """Truncated products of scalar jets given as coefficient arrays (...,
    ncoef), broadcast over the leading axes.  Each product slot adds its
    terms by ``bincount`` in triple order; a stack offsets each row's slots
    by its row, so a row's sums are those of that row alone."""
    # bincount, not reduceat: reduceat was ~15% slower at (3, 4) and moved ring residuals
    ia, ib, ic, _ = _product_triples(dim, order)
    if a.ndim + b.ndim == 2:   # one row: offset 0, and a[ia] gathers ~5x faster than a[..., ia]
        return np.bincount(ic, a[ia] * b[ib], minlength=a.shape[-1])
    terms = a.take(ia, axis=-1) * b.take(ib, axis=-1)
    rows, nc = terms.shape[:-1], a.shape[-1]
    count = math.prod(rows)
    return np.bincount(_row_slots(dim, order, count), terms.ravel(),
                       minlength=count * nc).reshape(*rows, nc)


@lru_cache(maxsize=None)
def _row_slots(dim: int, order: int, count: int) -> np.ndarray:
    """The product slots of ``count`` stacked rows, flat: row r's triples
    land in slots offset by r * ncoef."""
    ic = _product_triples(dim, order)[2]
    slots = (ic + n_coeffs(dim, order) * np.arange(count)[:, None]).ravel()
    slots.flags.writeable = False
    return slots


def contract_coeffs(subscripts: str, a: np.ndarray, b: np.ndarray, dim: int,
                    order: int) -> np.ndarray:
    """The truncated product of jet arrays a and b (..., ncoef) of one (dim,
    order), contracted over their tensor axes by the einsum ``subscripts``
    (``"...ik,...kj->...ij"`` multiplies jet matrices; the label z is the
    coefficient axis's).  Both factors are gathered at the product triples,
    one einsum contracts them, and the terms of each product slot, one run
    of the triples, are added by one ``reduceat``."""
    ia, ib, _, starts = _product_triples(dim, order)
    sa, sb, out = subscripts.replace("->", ",").split(",")
    # take, not a[..., ia]: 1.3-3x faster on the last axis at n = 3, orders 1-4
    terms = np.einsum(f"{sa}z,{sb}z->{out}z", a.take(ia, axis=-1), b.take(ib, axis=-1))
    return np.add.reduceat(terms, starts, axis=-1)


def derivative_coeffs(a: np.ndarray, dim: int, order: int) -> np.ndarray:
    """All first derivatives of jets a (..., ncoef) at order ``order``:
    shape (dim, ..., n_coeffs(dim, order-1))."""
    slots, factors = _raised(dim, order)
    # + 0 turns a gathered -0.0 into +0.0, as a sum with exact zeros would
    d = a[..., slots] * factors + 0
    return d.transpose(d.ndim - 2, *range(d.ndim - 2), d.ndim - 1)


def compose_coeffs(a: np.ndarray, c: np.ndarray, dim: int, order: int) -> np.ndarray:
    """sum_k c[..., k] (a - a0)^k for scalar jets a (..., ncoef) and their
    univariate coefficients c (..., order + 1), by Horner on ``mul_coeffs``
    (exact to the truncation order)."""
    # x.T[0] is the constant slot of every row: a scalar for one jet (~4x
    # faster than x[..., 0] there), a view for a stack
    u = a.copy()
    u.T[0] = 0.0
    c = c.T
    out = np.zeros_like(u)
    out.T[0] = c[order]
    for k in range(order - 1, -1, -1):
        out = mul_coeffs(u, out, dim, order)
        out.T[0] += c[k]
    return out


def compose_rows(fn: str, a: np.ndarray, dim: int, order: int,
                 alpha: float | None = None) -> np.ndarray:
    """The analytic function ``fn`` composed with jets a (..., ncoef), each
    row at its own constant term (``Jet.apply``); a stack of rows takes exp
    and log, with the arithmetic of each row alone."""
    a0 = a[0] if a.ndim == 1 else a[..., :1]
    return compose_coeffs(a, _univariate_coeffs(fn, a0, order, alpha), dim, order)


def any_true(mask) -> bool:
    """np.any of a bool array or scalar: a scalar's own truth costs ~1/30 of
    np.any, which matters on the one-structure path."""
    return bool(mask.any()) if getattr(mask, "ndim", 0) else bool(mask)


def math_map(fn, x):
    """A ``math`` function at each entry of x (a float or an array).  Its
    results are those of a Python float: numpy's own exp and log loops round
    some last bits differently, and a row of a stack must equal that row
    evaluated alone."""
    if not getattr(x, "ndim", 0):
        return fn(x)
    return np.frompyfunc(fn, 1, 1)(x).astype(float)


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
        return Jet._unchecked(
            self.dim, self.order,
            compose_rows(fn, self.coeffs, self.dim, self.order, alpha),
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


def _univariate_coeffs(fn: str, a0, order: int, alpha: float | None):
    """Taylor coefficients c_k = fn^(k)(a0)/k! for k = 0..order, shape
    (order + 1,); for exp and log, a0 may be an array (..., 1) of constant
    terms, and then the coefficients of each are along the last axis."""
    k = np.arange(order + 1)
    if fn == "exp":
        return np.exp(a0) / _factorials(order)
    if fn == "log":
        if any_true(a0 <= 0.0):
            raise DomainError(f"log of non-positive constant term {np.min(a0)}")
        c = np.empty(getattr(a0, "shape", ())[:-1] + (order + 1,))
        c[..., :1] = math_map(math.log, a0)
        if order >= 1:
            kk = k[1:]
            c[..., 1:] = ((-1.0) ** (kk + 1)) / (kk * a0**kk)
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
