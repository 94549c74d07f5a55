"""Vectorized scalar fields on the round sphere for quadrature trials.

Fields are globally defined functions on the sphere, evaluated through
both stereographic charts at once (value, Euclidean chart gradient,
Laplacian and Hessian, batched over a chart axis of length 2 and a node
axis).  The building blocks are the ambient-coordinate restrictions,
which span the first nonzero eigenspace of the Laplacian; products of two
of them supply degree-two trials.  Every evaluation takes one
``ChartTable``, the grid's node data with the closed forms of every
ambient coordinate computed once, so a ``Sum``/``Product`` tree costs a
few broadcasts, and the flat Laplacian never forms the Hessian.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError


class ChartTable:
    """Both stereographic charts' node data, built once per grid.

    The charts share the (N, n) node array ``X``, and so ``XT`` (n, N) and
    ``D = 1 + |x|^2`` (N,); chart 2 flips the last ambient coordinate, so
    ``sign`` is [[1.0], [-1.0]].  The ambient coordinates xi_0 .. xi_n are
    ``xi`` (n+1, 2, N), their flat chart gradients ``dxi`` (n+1, n, 2, N)
    and flat chart Laplacians ``lap_xi`` (n+1, 2, N).  With r^2 = |x|^2,
    xi_a = 2 x_a / D for a < n and xi_n = sign (r^2 - 1)/D, with flat
    Laplacians x_a (16 r^2/D^3 - (8 + 4n)/D^2) and
    sign (4n/D^2 - 16 r^2/D^3).  Rows a < n are computed once and written
    to both charts; chart 2's row n is chart 1's negated.  The arrays are
    read-only, since fields return rows of them.
    """

    def __init__(self, X: np.ndarray):
        N, n = X.shape
        XT = np.ascontiguousarray(X.T)
        D = 1.0 + np.einsum("ij,ij->i", X, X)
        D2 = D * D
        r2_term = 16.0 * (D - 1.0) / (D2 * D)
        xi, lap_xi = np.empty((n + 1, 2, N)), np.empty((n + 1, 2, N))
        dxi = np.empty((n + 1, n, 2, N))
        xi[:n, 0] = 2.0 * XT / D
        xi[n, 0] = (D - 2.0) / D   # (r^2 - 1)/(r^2 + 1)
        dxi[:n, :, 0] = -4.0 * XT[:, None, :] * XT[None, :, :] / D**2
        dxi[np.arange(n), np.arange(n), 0] += 2.0 / D
        dxi[n, :, 0] = 4.0 * XT / D**2
        lap_xi[:n, 0] = XT * (r2_term - (8.0 + 4.0 * n) / D2)
        lap_xi[n, 0] = 4.0 * n / D2 - r2_term
        for array in (xi, dxi, lap_xi):
            array[:n, ..., 1, :] = array[:n, ..., 0, :]
            np.negative(array[n, ..., 0, :], out=array[n, ..., 1, :])
        for array in (XT, D, xi, dxi, lap_xi):
            array.flags.writeable = False
        self.sign, self.n = np.array([[1.0], [-1.0]]), n
        self.XT, self.D, self.xi, self.dxi, self.lap_xi = XT, D, xi, dxi, lap_xi

    def row(self, field: "AmbientCoordinate") -> int:
        """The table row of an ambient coordinate of a sphere of this
        table's dimension."""
        if field.n != self.n:
            raise DomainError(
                f"field dimension {field.n} does not match grid dimension {self.n}"
            )
        return field.a


class SphereField:
    """Base class.  Every evaluation takes one ``ChartTable``; ``grad``
    returns (n, 2, N), ``hess`` (n, n, 2, N) and the others (2, N)."""

    def value(self, table: ChartTable) -> np.ndarray:
        raise NotImplementedError

    def grad(self, table: ChartTable) -> np.ndarray:
        raise NotImplementedError

    def hess(self, table: ChartTable) -> np.ndarray:
        raise NotImplementedError

    def laplacian(self, table: ChartTable) -> np.ndarray:
        """Flat chart Laplacian, the trace of ``hess``, without the
        (n, n, 2, N) Hessian."""
        raise NotImplementedError


class Constant(SphereField):
    def __init__(self, c: float):
        self.c = float(c)

    def value(self, table):
        return np.full(table.xi.shape[1:], self.c)

    def grad(self, table):
        return np.zeros(table.dxi.shape[1:])

    def hess(self, table):
        return np.zeros((table.n,) + table.dxi.shape[1:])

    def laplacian(self, table):
        return np.zeros(table.xi.shape[1:])


class AmbientCoordinate(SphereField):
    """Restriction of the ambient coordinate xi_a (0 <= a <= n) to S^n.

    These are eigenfunctions: Laplacian(xi_a) = -n xi_a.  Value, gradient
    and flat Laplacian are rows of the chart table (see ``ChartTable``);
    only ``hess`` is computed per call.
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

    def laplacian(self, table):
        return table.lap_xi[table.row(self)]


class Sum(SphereField):
    def __init__(self, fields, coeffs):
        self.fields = tuple(fields)
        self.coeffs = tuple(float(c) for c in coeffs)

    def value(self, table):
        out = np.zeros(table.xi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.value(table)
        return out

    def grad(self, table):
        out = np.zeros(table.dxi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.grad(table)
        return out

    def hess(self, table):
        out = np.zeros((table.n,) + table.dxi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.hess(table)
        return out

    def laplacian(self, table):
        out = np.zeros(table.xi.shape[1:])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.laplacian(table)
        return out


class Product(SphereField):
    def __init__(self, left: SphereField, right: SphereField):
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

    def laplacian(self, table):
        left, right = self.left, self.right
        u, v = left.value(table), right.value(table)
        du, dv = left.grad(table), right.grad(table)
        return (
            u * right.laplacian(table)
            + v * left.laplacian(table)
            + 2.0 * np.einsum("ijk,ijk->jk", du, dv)
        )


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
