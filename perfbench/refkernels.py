"""Reference kernels that measure host speed between timed operations.

A workload's times are divided by its kernel's time in the same run, so a
slower or busier host raises both and leaves the ratio.  The kernels use
only Python and numpy, never the library under test, so an optimisation of
the library cannot move them.

* ``python``: small Python objects and numpy calls on arrays of a few dozen
  entries, the regime of truncated Taylor and rho-series arithmetic.
* ``array``: elementwise and batched small-matrix numpy work on arrays of
  several thousand entries, the regime of grid quadrature.
* ``mixed``: both, for workloads that spend time in each.

On a host whose cores are shared, speed changes many times a second by up
to about 1.8x, and interpreter-bound and array-bound code slow by
different amounts; a kernel tracks a workload well only when it has the
workload's mix.
"""

from __future__ import annotations

import threading
import time

import numpy as np


class InvalidReference(RuntimeError):
    """A reference measurement ran while another Python thread was alive."""


class _Series:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        out = np.zeros_like(self.c)
        np.add.at(out, _PY_DST, self.c[_PY_A] * other.c[_PY_B])
        return _Series(out)

    def __add__(self, other):
        return _Series(self.c + other.c)


def _product_table(size: int):
    a, b, dst = [], [], []
    for i in range(size):
        for j in range(size - i):
            a.append(i)
            b.append(j)
            dst.append(i + j)
    return np.array(a), np.array(b), np.array(dst)


_PY_SIZE = 20
_PY_A, _PY_B, _PY_DST = _product_table(_PY_SIZE)
_PY_SEED = [_Series(np.linspace(0.1, 0.5, _PY_SIZE) / (k + 1)) for k in range(4)]


def python_kernel() -> float:
    acc = _PY_SEED[0]
    table = {}
    for k in range(40):
        term = _PY_SEED[k % 4] * acc
        acc = acc + term
        table[(k % 7, k % 3)] = float(acc.c[0])
    return sum(table.values())


_AR_N = 7000
_AR_X = np.linspace(-1.0, 1.0, 3 * _AR_N).reshape(_AR_N, 3)
_AR_EYE = np.eye(3)
_AR_BIG = np.linspace(0.0, 1.0, 1 << 18)


def array_kernel() -> float:
    # batched small-matrix arithmetic over grid-sized arrays ...
    X = _AR_X
    D = 1.0 + np.sum(X**2, axis=1)
    H = 16.0 * X[:, 0, None, None] * X[:, :, None] * X[:, None, :] / D[:, None, None] ** 3
    H -= 4.0 * _AR_EYE[None, :, :] / D[:, None, None] ** 2
    M = H @ H + 0.5 * H
    vals = np.exp(-D) * np.trace(M, axis1=1, axis2=2) + np.sqrt(D)
    # ... and fresh multi-megabyte temporaries, whose page faults and
    # memory traffic slow differently from arithmetic on a busy host
    total = float(np.dot(vals, D))
    for _ in range(4):
        total += float((_AR_BIG * 1.0001)[::4096].sum())
    return total


def mixed_kernel() -> float:
    """Both kernels with about equal time in each, for workloads that
    alternate between the two regimes."""
    total = array_kernel()
    for _ in range(8):
        total += python_kernel()
    return total


KERNELS = {"python": python_kernel, "array": array_kernel, "mixed": mixed_kernel}


def time_kernel(kernel, reps: int) -> list:
    """Milliseconds of ``reps`` back-to-back kernel calls, one per call.

    Raises InvalidReference when another Python thread is alive, since a
    second thread would share the interpreter with the measurement.
    """
    if threading.active_count() > 1:
        raise InvalidReference(
            f"{threading.active_count()} Python threads alive during a "
            "reference measurement"
        )
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        out.append((time.perf_counter() - t0) * 1e3)
    return out
