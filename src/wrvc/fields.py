"""Vectorized scalar fields on the round sphere for quadrature trials.

Fields are globally defined functions on the sphere.  Every trial the
library builds is a polynomial of degree <= 2 in the ambient coordinates
xi in R^{n+1}: a ``Constant``, an ``AmbientCoordinate`` (the first nonzero
eigenspace of the Laplacian), a ``Product`` of two of them (degree-two
trials) and any ``Sum`` of these.  ``coefficients(n)`` reduces a field to
that form, u = c + b.xi + xi^T C xi with C symmetric, and a ``Product``
of degree above 2 raises there.  With w = b + 2 C xi, the round-metric
gradient norm and Laplace-Beltrami operator follow from xi alone,

    |grad u|_g^2 = |w|^2 - (xi.w)^2,
    Delta_g u = 2 tr C - n b.xi - 2(n+1) xi^T C xi,

the restriction formulas for a function on S^n in R^{n+1}, so no
quadrature path needs a chart derivative (``wrvc.variational``).

Every evaluation takes one ``ChartTable``: the node arrays of a
``ChartNodes``, the ambient coordinates on both stereographic charts at
once (a chart axis of length 2 before the node axis), and one trial
slot.  ``ChartTable.trial`` evaluates a trial's ambient form in one pass,
forms its values, gradient norms and Laplace-Beltrami values from it on
first read, and keeps the last trial it read, so every quadrature reader
of one trial shares one evaluation.
``value``, the tree's value, is now an oracle like ``grad`` and ``hess``,
the Euclidean chart derivatives: the tests check the form against it, and
no quadrature function calls it.  The nodes build the flat gradients
``grad`` and ``hess`` read on first use.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np

from .errors import DomainError


def _check_dimension(field_n: int, n: int):
    if field_n != n:
        raise DomainError(f"field dimension {field_n} does not match grid dimension {n}")


class ChartNodes:
    """Both stereographic charts' node arrays, read-only.

    The charts share the (N, n) node array ``X``, and so ``XT`` (n, N) and
    ``D = 1 + |x|^2`` (N,); chart 2 flips the last ambient coordinate, so
    ``sign`` is [[1.0], [-1.0]].  The ambient coordinates xi_0 .. xi_n are
    ``xi`` (n+1, 2, N): with r^2 = |x|^2, xi_a = 2 x_a / D for a < n and
    xi_n = sign (r^2 - 1)/D.  Their flat chart gradients ``dxi``
    (n+1, n, 2, N) are built on first use: only the chart derivatives
    ``grad`` and ``hess`` read them, and the quadrature reads ``xi`` only.
    Rows a < n are computed once and written to both charts; chart 2's row
    n is chart 1's negated.  The arrays are read-only, since fields return
    rows of them and every ``ChartTable`` on these nodes shares them.
    """

    def __init__(self, X: np.ndarray):
        N, n = X.shape
        XT = np.ascontiguousarray(X.T)
        D = 1.0 + np.einsum("ij,ij->i", X, X)
        xi = np.empty((n + 1, 2, N))
        xi[:n, 0] = 2.0 * XT / D
        xi[n, 0] = (D - 2.0) / D   # (r^2 - 1)/(r^2 + 1)
        _fill_chart_two(xi, n)
        sign = np.array([[1.0], [-1.0]])
        for array in (XT, D, xi, sign):
            array.flags.writeable = False
        self.sign, self.n = sign, n
        self.XT, self.D, self.xi = XT, D, xi

    @cached_property
    def dxi(self) -> np.ndarray:
        """(n+1, n, 2, N) flat chart gradients of the ambient coordinates."""
        n, XT, D = self.n, self.XT, self.D
        dxi = np.empty((n + 1, n) + self.xi.shape[1:])
        dxi[:n, :, 0] = -4.0 * XT[:, None, :] * XT[None, :, :] / D**2
        dxi[np.arange(n), np.arange(n), 0] += 2.0 / D
        dxi[n, :, 0] = 4.0 * XT / D**2
        _fill_chart_two(dxi, n)
        dxi.flags.writeable = False
        return dxi


class ChartTable:
    """What every field evaluation takes: the shared arrays of one
    ``ChartNodes`` (``nodes``; ``n``, ``sign``, ``XT``, ``D``, ``xi`` and
    the lazy ``dxi`` read through to them) and one trial's ``TrialValues``
    (``trial``), the table's own.  Tables on the same nodes share every
    array and no trial, so freeing a table frees its trial and nothing
    else.
    """

    def __init__(self, nodes: ChartNodes):
        self.nodes = nodes
        self.n, self.sign = nodes.n, nodes.sign
        self.XT, self.D, self.xi = nodes.XT, nodes.D, nodes.xi
        self._trial = (None, None)   # (field, its TrialValues)

    @property
    def dxi(self) -> np.ndarray:
        """The nodes' flat chart gradients, built on their first read."""
        return self.nodes.dxi

    def trial(self, field: "SphereField") -> "TrialValues":
        """The trial's values on both charts, evaluated from its ambient
        form (``_ambient_form``).  The table keeps the last trial it read,
        the field object itself, so a read of the same object evaluates
        nothing and a freed field's recycled id never matches; one trial
        at a time bounds the memory."""
        _require_field(field, "trial")
        if self._trial[0] is not field:
            self._trial = (field, _ambient_form(field, self))
        return self._trial[1]

    def row(self, field: "AmbientCoordinate") -> int:
        """The table row of an ambient coordinate of a sphere of this
        table's dimension."""
        _check_dimension(field.n, self.n)
        return field.a


class TrialValues:
    """One trial on one table, from its ambient form u = c + b.xi + xi^T C xi
    with w = b + 2 C xi: the terms b.xi, xi^T C xi and |w|^2, flat over both
    charts (2N,), and the (2, N) read-only arrays the grid reads, each
    formed from the terms on its first read:

        value      u = c + b.xi + xi^T C xi,
        grad2      |grad u|_g^2 = |w|^2 - (xi.w)^2, xi.w = b.xi + 2 xi^T C xi,
        laplacian  Delta_g u = 2 tr C - n b.xi - 2(n+1) xi^T C xi.

    A term that is the same on every node (xi^T C xi and |w|^2 of a trial
    with C = 0) is a float, and broadcasts."""

    def __init__(self, table: ChartTable, c, trace, bxi, xCx, w2):
        self._shape, self._n = table.xi.shape[1:], table.n
        self._c, self._trace, self._bxi, self._xCx, self._w2 = c, trace, bxi, xCx, w2

    def _out(self, flat: np.ndarray) -> np.ndarray:
        out = flat.reshape(self._shape)
        out.flags.writeable = False
        return out

    @cached_property
    def value(self) -> np.ndarray:
        value = self._c + self._bxi
        value += self._xCx
        return self._out(value)

    @cached_property
    def grad2(self) -> np.ndarray:
        xw = self._bxi + 2.0 * self._xCx
        np.multiply(xw, xw, out=xw)
        return self._out(np.subtract(self._w2, xw, out=xw))

    @cached_property
    def laplacian(self) -> np.ndarray:
        n = self._n
        lap = n * self._bxi
        np.subtract(2.0 * self._trace, lap, out=lap)
        lap -= 2.0 * (n + 1) * self._xCx
        return self._out(lap)


def _ambient_form(field: "SphereField", table: ChartTable) -> TrialValues:
    """The trial reduced once to u = c + b.xi + xi^T C xi and its terms
    evaluated on the table's nodes (``TrialValues``).  C xi is formed one
    row at a time, so no (n+1, 2N) temporary is allocated, and with
    numpy's own loops, not BLAS, so each node's entries do not depend on
    the others.  A zero row of C leaves w_a = b_a, a constant, and is
    skipped: a coordinate trial reads no row of C xi and keeps
    xi^T C xi = 0 and |w|^2 = |b|^2 as floats, a product of two
    coordinates reads two rows, formed in two work arrays.  A constant, a
    coordinate and a product of two coordinates get the tree's ``value``
    bit for bit; other sums round differently from the tree."""
    n = table.n
    c, b, C = field.coefficients(n)
    xi = table.xi.reshape(n + 1, -1)
    bxi = np.einsum("a,ak->k", b, xi)
    active = C.any(axis=1)
    xCx, w2 = 0.0, np.sum(b[~active] ** 2)   # floats until the first row
    row, term = np.empty_like(bxi), np.empty_like(bxi)
    for a in np.flatnonzero(active):
        np.einsum("b,bk->k", C[a], xi, out=row)   # (C xi)_a
        xCx += np.multiply(xi[a], row, out=term)
        row *= 2.0
        row += b[a]                               # w_a
        w2 += np.multiply(row, row, out=term)
    return TrialValues(table, c, np.trace(C), bxi, xCx, w2)


def _fill_chart_two(array: np.ndarray, n: int):
    # chart 2 repeats rows a < n of chart 1 and negates row n
    array[:n, ..., 1, :] = array[:n, ..., 0, :]
    np.negative(array[n, ..., 0, :], out=array[n, ..., 1, :])


def _finite_real(c, what: str) -> float:
    if not isinstance(c, numbers.Real) or not math.isfinite(c):
        raise DomainError(f"{what} {c!r} is not a finite real number")
    return float(c)


def _require_field(field, what: str):
    if not isinstance(field, SphereField):
        # one line, also for an array, whose repr spans lines
        shown = " ".join(repr(field).split())
        raise DomainError(f"{what} {shown} is not a SphereField")


def _degree(b: np.ndarray, C: np.ndarray) -> int:
    return 2 if np.count_nonzero(C) else 1 if np.count_nonzero(b) else 0


class SphereField:
    """Base class.  Every evaluation takes one ``ChartTable``; ``grad``
    returns (n, 2, N), ``hess`` (n, n, 2, N) and ``value`` (2, N)."""

    def value(self, table: ChartTable) -> np.ndarray:
        raise NotImplementedError

    def grad(self, table: ChartTable) -> np.ndarray:
        raise NotImplementedError

    def hess(self, table: ChartTable) -> np.ndarray:
        raise NotImplementedError

    def coefficients(self, n: int) -> tuple:
        """(c, b, C) with u = c + b.xi + xi^T C xi on S^n: a float, an
        (n+1,) array and a symmetric (n+1, n+1) array."""
        raise NotImplementedError


class Constant(SphereField):
    def __init__(self, c: float):
        self.c = _finite_real(c, "constant")

    def value(self, table):
        return np.full(table.xi.shape[1:], self.c)

    def grad(self, table):
        return np.zeros((table.n,) + table.xi.shape[1:])

    def hess(self, table):
        return np.zeros((table.n, table.n) + table.xi.shape[1:])

    def coefficients(self, n):
        return self.c, np.zeros(n + 1), np.zeros((n + 1, n + 1))


class AmbientCoordinate(SphereField):
    """Restriction of the ambient coordinate xi_a (0 <= a <= n) to S^n.

    These are eigenfunctions: Laplacian(xi_a) = -n xi_a.  Value and
    gradient are rows of the chart table (see ``ChartTable``); only
    ``hess`` is computed per call.
    """

    def __init__(self, a: int, n: int):
        if not (isinstance(a, numbers.Integral) and isinstance(n, numbers.Integral)
                and 0 <= a <= n):
            raise DomainError(f"ambient index {a!r} is not an integer in 0..{n!r}")
        self.a = int(a)
        self.n = int(n)

    def value(self, table):
        return table.xi[table.row(self)]

    def grad(self, table):
        return table.dxi[table.row(self)]

    def hess(self, table):
        a, n = table.row(self), self.n
        XT, D = table.XT, table.D
        eye = np.eye(n)
        if a < n:
            xa = XT[a]
            out = 16.0 * xa * XT[:, None, :] * XT[None, :, :] / D**3
            out -= 4.0 * eye[a][:, None, None] * XT[None, :, :] / D**2
            out -= 4.0 * eye[a][None, :, None] * XT[:, None, :] / D**2
            out -= 4.0 * xa * eye[:, :, None] / D**2
            return np.stack((out, out), axis=2)
        out = -16.0 * XT[:, None, :] * XT[None, :, :] / D**3
        out += 4.0 * eye[:, :, None] / D**2
        return table.sign * out[:, :, None, :]

    def coefficients(self, n):
        _check_dimension(self.n, n)
        b = np.zeros(n + 1)
        b[self.a] = 1.0
        return 0.0, b, np.zeros((n + 1, n + 1))


class Sum(SphereField):
    """sum_i coeffs[i] * fields[i]: as many finite real coefficients as
    fields."""

    def __init__(self, fields, coeffs):
        fields, coeffs = tuple(fields), tuple(coeffs)
        if len(fields) != len(coeffs):
            raise DomainError(f"a Sum needs one coefficient per field, got "
                              f"{len(fields)} fields and {len(coeffs)} coefficients")
        for field in fields:
            _require_field(field, "Sum term")
        self.fields = fields
        self.coeffs = tuple(_finite_real(c, "Sum coefficient") for c in coeffs)

    def value(self, table):
        out = np.zeros(table.xi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.value(table)
        return out

    def grad(self, table):
        out = np.zeros((table.n,) + table.xi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.grad(table)
        return out

    def hess(self, table):
        out = np.zeros((table.n, table.n) + table.xi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.hess(table)
        return out

    def coefficients(self, n):
        c, b, C = 0.0, np.zeros(n + 1), np.zeros((n + 1, n + 1))
        for k, f in zip(self.coeffs, self.fields):
            fc, fb, fC = f.coefficients(n)
            c += k * fc
            b += k * fb
            C += k * fC
        return c, b, C


class Product(SphereField):
    """left * right; as a grid trial, of degree <= 2 in the ambient
    coordinates."""

    def __init__(self, left: SphereField, right: SphereField):
        _require_field(left, "Product factor")
        _require_field(right, "Product factor")
        self.left = left
        self.right = right

    def value(self, table):
        return self.left.value(table) * self.right.value(table)

    def grad(self, table):
        u, v = self.left.value(table), self.right.value(table)
        du, dv = self.left.grad(table), self.right.grad(table)
        return u * dv + v * du

    def hess(self, table):
        u, v = self.left.value(table), self.right.value(table)
        du, dv = self.left.grad(table), self.right.grad(table)
        hu, hv = self.left.hess(table), self.right.hess(table)
        cross = du[:, None] * dv[None, :]
        return u * hv + v * hu + cross + np.swapaxes(cross, 0, 1)

    def coefficients(self, n):
        c1, b1, C1 = self.left.coefficients(n)
        c2, b2, C2 = self.right.coefficients(n)
        degree = _degree(b1, C1) + _degree(b2, C2)
        if degree > 2:
            raise DomainError(
                f"a Product of degree {degree} is not a grid trial: grid trials "
                "are polynomials of degree <= 2 in the ambient coordinates"
            )
        cross = b1[:, None] * b2
        return c1 * c2, c1 * b2 + c2 * b1, c1 * C2 + c2 * C1 + 0.5 * (cross + cross.T)


def coordinate_harmonics(n: int) -> list:
    """The n+1 first-eigenspace trials xi_0 .. xi_n."""
    return [AmbientCoordinate(a, n) for a in range(n + 1)]


def degree_two_harmonics(n: int) -> list:
    """Products xi_a xi_b with a < b (second nonzero eigenspace members)."""
    out = []
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            out.append(Product(AmbientCoordinate(a, n), AmbientCoordinate(b, n)))
    return out


def random_combination(rng, n: int) -> SphereField:
    """Seeded random span of the low harmonics (plus a constant offset,
    removed later by mean-zero projection where required)."""
    fields = [Constant(1.0)] + coordinate_harmonics(n) + degree_two_harmonics(n)
    coeffs = rng.uniform(-1.0, 1.0, len(fields))
    return Sum(fields, coeffs)
