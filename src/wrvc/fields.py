"""Vectorized scalar fields on the round sphere for quadrature trials.

Fields are globally defined functions on the sphere, evaluated through
either stereographic chart (value, Euclidean chart gradient, Euclidean
chart Laplacian and Hessian, all batched over nodes).  The building
blocks are the ambient-coordinate restrictions, which span the first
nonzero eigenspace of the Laplacian; products of two of them supply
degree-two trials.  Closed forms are used throughout, so grid evaluation
is a few numpy expressions per field over shared node data (D = 1 + |x|^2,
which the caller supplies), and the flat Laplacian never forms the
(N, n, n) Hessian.
"""

from __future__ import annotations

import numpy as np


def node_D(X: np.ndarray) -> np.ndarray:
    """D = 1 + |x|^2 per node, the one quantity every closed form shares."""
    return 1.0 + np.einsum("ij,ij->i", X, X)


class SphereField:
    """Base class.  Every evaluation takes ``(sign, X, D)``: ``sign`` is the
    chart's +1.0 or -1.0, which flips the last ambient coordinate between
    the two stereographic charts, and ``D = node_D(X)`` is computed once by
    the caller (``QuadratureGrid.D`` on grid nodes) and passed down the
    ``Sum``/``Product`` tree.
    """

    def value(self, sign, X: np.ndarray, D: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad(self, sign, X: np.ndarray, D: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, sign, X: np.ndarray, D: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def laplacian(self, sign, X: np.ndarray, D: np.ndarray) -> np.ndarray:
        """Flat chart Laplacian, the trace of ``hess``, without the
        (N, n, n) Hessian."""
        raise NotImplementedError


class Constant(SphereField):
    def __init__(self, c: float):
        self.c = float(c)

    def value(self, sign, X, D):
        return np.full(X.shape[0], self.c)

    def grad(self, sign, X, D):
        return np.zeros_like(X)

    def hess(self, sign, X, D):
        n = X.shape[1]
        return np.zeros((X.shape[0], n, n))

    def laplacian(self, sign, X, D):
        return np.zeros(X.shape[0])


class AmbientCoordinate(SphereField):
    """Restriction of the ambient coordinate xi_a (0 <= a <= n) to S^n.

    In a stereographic chart with |x|^2 = r^2 and D = 1 + r^2:
    xi_a = 2 x_a / D for a < n, and xi_n = sign (r^2 - 1)/D.
    These are eigenfunctions: Laplacian(xi_a) = -n xi_a.  Their flat
    chart Laplacians are x_a (16 r^2/D^3 - (8 + 4n)/D^2) for a < n and
    sign (4n/D^2 - 16 r^2/D^3) for a = n.
    """

    def __init__(self, a: int, n: int):
        if not 0 <= a <= n:
            raise ValueError(f"ambient index {a} outside 0..{n}")
        self.a = a
        self.n = n

    def value(self, sign, X, D):
        if self.a < self.n:
            return 2.0 * X[:, self.a] / D
        return sign * (D - 2.0) / D   # (r^2 - 1)/(r^2 + 1)

    def grad(self, sign, X, D):
        if self.a < self.n:
            out = -4.0 * X[:, self.a, None] * X / D[:, None] ** 2
            out[:, self.a] += 2.0 / D
            return out
        return sign * 4.0 * X / D[:, None] ** 2

    def hess(self, sign, X, D):
        n = X.shape[1]
        eye = np.eye(n)
        if self.a < self.n:
            xa = X[:, self.a]
            out = 16.0 * xa[:, None, None] * X[:, :, None] * X[:, None, :] \
                / D[:, None, None] ** 3
            out -= 4.0 * eye[self.a][None, :, None] * X[:, None, :] \
                / D[:, None, None] ** 2
            out -= 4.0 * eye[self.a][None, None, :] * X[:, :, None] \
                / D[:, None, None] ** 2
            out -= 4.0 * xa[:, None, None] * eye[None, :, :] \
                / D[:, None, None] ** 2
            return out
        out = -16.0 * X[:, :, None] * X[:, None, :] / D[:, None, None] ** 3
        out += 4.0 * eye[None, :, :] / D[:, None, None] ** 2
        return sign * out

    def laplacian(self, sign, X, D):
        n = X.shape[1]
        D2 = D * D
        r2_term = 16.0 * (D - 1.0) / (D2 * D)
        if self.a < self.n:
            return X[:, self.a] * (r2_term - (8.0 + 4.0 * n) / D2)
        return sign * (4.0 * n / D2 - r2_term)


class Sum(SphereField):
    def __init__(self, fields, coeffs):
        self.fields = tuple(fields)
        self.coeffs = tuple(float(c) for c in coeffs)

    def value(self, sign, X, D):
        out = np.zeros(X.shape[0])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.value(sign, X, D)
        return out

    def grad(self, sign, X, D):
        out = np.zeros_like(X)
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.grad(sign, X, D)
        return out

    def hess(self, sign, X, D):
        n = X.shape[1]
        out = np.zeros((X.shape[0], n, n))
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.hess(sign, X, D)
        return out

    def laplacian(self, sign, X, D):
        out = np.zeros(X.shape[0])
        for c, f in zip(self.coeffs, self.fields):
            out += c * f.laplacian(sign, X, D)
        return out


class Product(SphereField):
    def __init__(self, left: SphereField, right: SphereField):
        self.left = left
        self.right = right

    def value(self, sign, X, D):
        return self.left.value(sign, X, D) * self.right.value(sign, X, D)

    def grad(self, sign, X, D):
        u, v = self.left.value(sign, X, D), self.right.value(sign, X, D)
        du, dv = self.left.grad(sign, X, D), self.right.grad(sign, X, D)
        return u[:, None] * dv + v[:, None] * du

    def hess(self, sign, X, D):
        u, v = self.left.value(sign, X, D), self.right.value(sign, X, D)
        du, dv = self.left.grad(sign, X, D), self.right.grad(sign, X, D)
        hu, hv = self.left.hess(sign, X, D), self.right.hess(sign, X, D)
        cross = du[:, :, None] * dv[:, None, :]
        return (
            u[:, None, None] * hv
            + v[:, None, None] * hu
            + cross
            + np.swapaxes(cross, 1, 2)
        )

    def laplacian(self, sign, X, D):
        left, right = self.left, self.right
        u, v = left.value(sign, X, D), right.value(sign, X, D)
        du, dv = left.grad(sign, X, D), right.grad(sign, X, D)
        return (
            u * right.laplacian(sign, X, D)
            + v * left.laplacian(sign, X, D)
            + 2.0 * np.einsum("ij,ij->i", du, dv)
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
