"""Built-in metric measure structures, ambient-expansion generators, and the
plain-text model file format.

A ``ModelSpec`` is symbolic: metric and density components are expression
ASTs over named coordinates, evaluated into jets at any interior chart
point.  Structures carrying a proportionality constant ``lam`` (so that
P = lam g and J = (n+m) lam pointwise) also generate their canonical
ambient expansion g_rho = (1+lam rho)^2 g, f_rho = (1+lam rho) f.
"""

from __future__ import annotations

import configparser
import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelError, OrderError
from .expr import Node, evaluate, parse_expression
from .geometry import MetricAtPoint
from .jets import Jet, n_coeffs
from .rho import AmbientExpansion, _read_ambient_file
from .weighted import MetricMeasurePoint, quasi_einstein_residual, weighted_invariants

BUILTIN_NAMES = (
    "euclidean",
    "round_sphere_stereographic",
    "hyperbolic_upper_half",
    "qe_sphere",
)

_COORD_NAMES = ("x", "y", "z", "w")

DEFAULT_ORDER = 4
DEFAULT_AMBIENT_ORDER = 5


@dataclass
class ModelSpec:
    """Symbolic definition of a metric measure structure on one chart."""

    name: str
    n: int
    m: float
    mu: float
    coords: tuple
    g_exprs: list              # n x n nested list of expression ASTs, read at construction
    f_expr: Node
    lam: float | None = None   # proportionality constant, when known
    ambient_file: str | None = None
    default_point: np.ndarray = None
    domain: str = "all points of the chart"
    inside: Callable | None = None   # point -> bool, true exactly on ``domain``

    def __post_init__(self):
        if self.default_point is None:
            self.default_point = np.zeros(self.n)
        self.default_point = np.asarray(self.default_point, dtype=float)
        # the distinct metric component ASTs (``in`` and ``index`` try
        # identity before equality), and each (i, j) slot's index into them
        self._components = []
        for row in self.g_exprs:
            for node in row:
                if node not in self._components:
                    self._components.append(node)
        self._slots = np.array([[self._components.index(node) for node in row]
                                for row in self.g_exprs])

    # -- pointwise evaluation ------------------------------------------

    def _env(self, point, order):
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            raise ModelError(
                f"model {self.name!r} needs a point with {self.n} coordinates"
            )
        return {
            name: Jet.variable(i, point[i], self.n, order)
            for i, name in enumerate(self.coords)
        }

    def metric_components(self, env, as_array) -> np.ndarray:
        """The (n, n, ...) array of metric components over ``env``, whose
        coordinates are jets or node arrays: each distinct component AST is
        evaluated once and ``as_array`` turns its value into a float array."""
        values = np.array([as_array(evaluate(node, env)) for node in self._components])
        return values[self._slots]

    def metric_at(self, point, order: int = DEFAULT_ORDER) -> MetricAtPoint:
        """Metric jets at a point."""
        env = self._env(point, order)
        nc = n_coeffs(self.n, order)

        def coeffs(val):
            if isinstance(val, Jet):
                return val.coeffs
            out = np.zeros(nc)
            out[0] = float(val)
            return out

        with self._evaluating("metric", point):
            G = self.metric_components(env, coeffs)
        self._require_finite_at(G, "metric", point)
        with self._checking("metric", point):
            return MetricAtPoint(G, point)

    def density_at(self, point, order: int = DEFAULT_ORDER) -> Jet:
        env = self._env(point, order)
        with self._evaluating("density", point):
            val = evaluate(self.f_expr, env)
        if not isinstance(val, Jet):
            val = Jet.constant(float(val), self.n, order)
        self._require_finite_at(val.coeffs, "density", point)
        return val

    def _at_point(self, what: str, point, detail: str) -> str:
        coords = ", ".join(f"{float(c):g}" for c in point)
        return f"{what} of model {self.name!r} {detail} at point ({coords})"

    @contextmanager
    def _checking(self, what: str, point, detail: str = "is rejected",
                  note: str = ""):
        """Name the model and the point on a ``DomainError`` raised while
        computing ``what`` at a point; a float overflow (``exp(1000)``,
        ``10^400``) reads as a value that is not finite."""
        try:
            yield
        except OverflowError as exc:
            raise DomainError(self._at_point(what, point, "is not finite")) from exc
        except DomainError as exc:
            raise DomainError(
                f"{self._at_point(what, point, detail)}{note}: {exc}"
            ) from exc

    @contextmanager
    def _evaluating(self, what: str, point):
        """Evaluate the metric or density expressions at a point, silencing
        floating-point warnings (the result is checked for finiteness
        instead) and naming the model's domain too on a ``DomainError``,
        which a point that ``inside`` rejects also raises."""
        note = f" (model domain: {self.domain})"
        with (self._checking(what, point, "is undefined", note),
              np.errstate(over="ignore", invalid="ignore", divide="ignore")):
            if self.inside is not None and not self.inside(point):
                raise DomainError("the point lies outside the domain")
            yield

    def _require_finite_at(self, coeffs, what: str, point):
        if not np.isfinite(coeffs).all():
            raise DomainError(self._at_point(what, point, "is not finite"))

    def structure_at(self, point, order: int = DEFAULT_ORDER) -> MetricMeasurePoint:
        g = self.metric_at(point, order)
        f = self.density_at(point, order)
        with self._checking("structure", point):
            return MetricMeasurePoint(g, f, self.m, self.mu)

    def invariants_at(self, point, order: int = DEFAULT_ORDER):
        """Weighted invariants at a chart point, with the best-fit
        proportionality constant and its residual (``quasi_einstein_residual``).
        Values that overflow (a nearly singular metric, a density near 0)
        raise a ``DomainError`` naming the model and the point."""
        p = self.structure_at(point, order)
        what = "weighted curvature"
        with self._checking(what, point), np.errstate(all="ignore"):
            w = weighted_invariants(p)
            lam, residual = quasi_einstein_residual(w, p.g.matrix, self.n, self.m)
        self._require_finite_at(
            np.hstack([w.ric_phi.ravel(), w.P.ravel(),
                       [w.r_phi, w.J, w.Y, w.F_phi, lam, residual]]),
            what, point,
        )
        return w, lam, residual

    def ambient_at(self, point, K: int | None = None) -> AmbientExpansion:
        """The model's ambient expansion at one chart point, to order K.

        K = None means the coefficient file's own order, or
        ``DEFAULT_AMBIENT_ORDER`` for a generated expansion.  A coefficient
        file holds one point's data, so ``point`` does not enter it; its
        header must match the model's (n, m, mu), and a K above the file's
        raises ``OrderError``.  A generated expansion that overflows or
        starts from a non-positive density raises a ``DomainError`` naming
        the model and the point (a coefficient file's errors name
        ``path:line`` instead).
        """
        if self.lam is not None:
            g0 = self.metric_at(point, order=0).matrix
            f0 = self.density_at(point, order=0).value
            order = DEFAULT_AMBIENT_ORDER if K is None else K
            with self._checking("ambient expansion", point):
                return quasi_einstein_coeffs(g0, f0, self.lam, order)
        if self.ambient_file is not None:
            return self._file_ambient(K)
        raise ModelError(
            f"model {self.name!r} carries no ambient generator "
            "(no proportionality constant and no coefficient file)"
        )

    def _file_ambient(self, K: int | None) -> AmbientExpansion:
        path = self.ambient_file
        expansion, m, mu, line = _read_ambient_file(path)
        if (expansion.n, m, mu) != (self.n, self.m, self.mu):
            raise ModelError(
                f"{path}:{line}: header n m mu = {expansion.n} {m:g} {mu:g} "
                f"does not match model {self.name!r} "
                f"(n m mu = {self.n} {self.m:g} {self.mu:g})"
            )
        if K is None:
            return expansion
        if not 1 <= K <= expansion.K:
            raise OrderError(
                f"order K = {K} outside 1..{expansion.K} held by {path}"
            )
        return AmbientExpansion(
            gcoeffs=expansion.gcoeffs[: K + 1],
            fcoeffs=expansion.fcoeffs[: K + 1],
        )

    def random_points(self, rng, count: int) -> np.ndarray:
        """Sample points in the box of half-width 0.8 around the default
        point, which lies inside the chart for every built-in model."""
        return self.default_point + rng.uniform(-0.8, 0.8, size=(count, self.n))


# -- builtin structures ---------------------------------------------------


def _require_finite(**params):
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ModelError(f"parameter {name} must be finite, got {value}")


def _delta_exprs(n, diagonal: str):
    g = [[parse_expression("0") for _ in range(n)] for _ in range(n)]
    for i in range(n):
        g[i][i] = parse_expression(diagonal)
    return g


def _r2_text(n):
    return "+".join(f"{_COORD_NAMES[i]}^2" for i in range(n))


def builtin_model(name: str, n: int = 3, m: float | None = None,
                  mu: float | None = None) -> ModelSpec:
    """Construct one of the built-in structures.

    euclidean / round_sphere_stereographic / hyperbolic_upper_half default
    to m = 0 with f = 1 (a caller may set m > 0, keeping the constant
    density); qe_sphere(n, m, mu) needs m > 1 and mu > 0 and carries the
    constant density that balances the proportionality conditions.
    """
    if name not in BUILTIN_NAMES:
        raise ModelError(
            f"unknown model {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    if not 2 <= n <= 4:
        raise ModelError(f"built-in models support 2 <= n <= 4, got n = {n}")
    _require_finite(m=m, mu=mu)
    coords = _COORD_NAMES[:n]
    if name == "qe_sphere":
        m = 2.0 if m is None else float(m)
        mu = 1.0 if mu is None else float(mu)
        if m <= 1 or mu <= 0:
            raise ModelError(
                f"qe_sphere needs m > 1 and mu > 0 (got m = {m}, mu = {mu}): "
                "the constant density would not be real"
            )
        c2 = (m - 1) * mu / (n - 1)
        lam = (n - 1) / (2.0 * (n + m - 1))
        return ModelSpec(
            name=name, n=n, m=m, mu=mu, coords=coords,
            g_exprs=_delta_exprs(n, f"4/(1+{_r2_text(n)})^2"),
            f_expr=parse_expression(f"{np.sqrt(c2):.17g}"),
            lam=lam,
            domain="any chart point (the chart covers the sphere minus a point)",
        )

    m = 0.0 if m is None else float(m)
    mu = 0.0 if mu is None else float(mu)
    f_expr = parse_expression("1")
    if name == "euclidean":
        return ModelSpec(
            name=name, n=n, m=m, mu=mu, coords=coords,
            g_exprs=_delta_exprs(n, "1"), f_expr=f_expr, lam=0.0,
            domain="all of the chart",
        )
    if name == "round_sphere_stereographic":
        lam = 0.5 if m == 0 else None
        return ModelSpec(
            name=name, n=n, m=m, mu=mu, coords=coords,
            g_exprs=_delta_exprs(n, f"4/(1+{_r2_text(n)})^2"),
            f_expr=f_expr, lam=lam,
            domain="any chart point (the chart covers the sphere minus a point)",
        )
    # hyperbolic_upper_half
    lam = -0.5 if m == 0 else None
    last = coords[-1]
    spec = ModelSpec(
        name=name, n=n, m=m, mu=mu, coords=coords,
        g_exprs=_delta_exprs(n, f"{last}^-2"), f_expr=f_expr, lam=lam,
        domain=f"points with {last} > 0", inside=lambda x: x[-1] > 0.0,
    )
    spec.default_point = np.zeros(n)
    spec.default_point[-1] = 1.0
    return spec


# -- ambient generators -----------------------------------------------------


def quasi_einstein_coeffs(g, f, lam: float, K: int) -> AmbientExpansion:
    """Expansion of g_rho = (1+lam rho)^2 g, f_rho = (1+lam rho) f.

    Works batched: g may be (..., n, n) with f (...,) matching.
    """
    if K < 1:
        raise ModelError("ambient expansion needs K >= 1")
    g = np.asarray(g, dtype=float)
    f = np.asarray(f, dtype=float)
    gcoeffs = np.zeros((K + 1,) + g.shape)
    fcoeffs = np.zeros((K + 1,) + f.shape)
    gcoeffs[0] = g
    gcoeffs[1] = 2.0 * lam * g
    if K >= 2:
        gcoeffs[2] = lam**2 * g
    fcoeffs[0] = f
    fcoeffs[1] = lam * f
    return AmbientExpansion(gcoeffs=gcoeffs, fcoeffs=fcoeffs)


def lcf_candidate_ambient(g, f, P, Y: float, m: float, K: int) -> AmbientExpansion:
    """Conformally-flat-type expansion from pointwise data (P, Y):

        g_rho = g (1 + rho g^{-1}P)^2 = g + 2 rho P + rho^2 P g^{-1} P,
        f_rho = f (1 + rho Y/m).

    The density slope Y/m is taken to be 0 at m = 0 (where Y vanishes).
    """
    if K < 1:
        raise ModelError("ambient expansion needs K >= 1")
    g = np.asarray(g, dtype=float)
    P = np.asarray(P, dtype=float)
    f = np.asarray(f, dtype=float)
    A = np.linalg.solve(g, P)
    gcoeffs = np.zeros((K + 1,) + g.shape)
    fcoeffs = np.zeros((K + 1,) + f.shape)
    gcoeffs[0] = g
    gcoeffs[1] = 2.0 * P
    if K >= 2:
        gcoeffs[2] = P @ A
    fcoeffs[0] = f
    fcoeffs[1] = f * (Y / m if m > 0 else 0.0)
    return AmbientExpansion(gcoeffs=gcoeffs, fcoeffs=fcoeffs)


# -- model files --------------------------------------------------------------


def load_model_file(path) -> ModelSpec:
    """Read the key/value model format.

    Sections: [space] with n, m, mu and optional coords; [metric] with
    component expressions g_ij (1-based indices, lower triangle
    sufficient, missing off-diagonal entries default to 0); [density]
    with f; optional [ambient] with lambda or a coefficients file path.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path)
    except configparser.DuplicateOptionError as exc:
        raise ModelError(f"{path}:{exc.lineno}: duplicate key {exc.option!r} "
                         f"in [{exc.section}]")
    except configparser.MissingSectionHeaderError as exc:
        raise ModelError(f"{path}:{exc.lineno}: no section header before "
                         f"{exc.line.strip()!r}")
    except configparser.Error as exc:
        raise ModelError(f"{path}: {str(exc).splitlines()[0]}")
    if not read:
        raise ModelError(f"cannot read model file {path!r}")
    if "space" not in cp or "metric" not in cp:
        raise ModelError("model file needs [space] and [metric] sections")
    try:
        n = cp.getint("space", "n")
        m = cp.getfloat("space", "m", fallback=0.0)
        mu = cp.getfloat("space", "mu", fallback=0.0)
    except ValueError as exc:
        raise ModelError(f"bad [space] entry: {exc}")
    _require_finite(m=m, mu=mu)
    if not 1 <= n <= 4:
        raise ModelError(f"model dimension must be 1..4, got {n}")
    coords_raw = cp.get("space", "coords", fallback=", ".join(_COORD_NAMES[:n]))
    coords = tuple(c.strip() for c in coords_raw.split(",") if c.strip())
    if len(coords) != n:
        raise ModelError(
            f"expected {n} coordinate names, got {len(coords)}: {coords}"
        )

    g_exprs = [[parse_expression("0") for _ in range(n)] for _ in range(n)]
    seen = set()
    for key, text in cp.items("metric"):
        if not (key.startswith("g_") and len(key) == 4 and key[2:].isdecimal()):
            raise ModelError(
                f"{path}: bad metric key {key!r}; use g_ij with 1-based i, j"
            )
        i, j = int(key[2]) - 1, int(key[3]) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ModelError(f"metric key {key!r} outside the {n}x{n} range")
        ast = parse_expression(text)
        g_exprs[i][j] = ast
        g_exprs[j][i] = ast
        seen.add((min(i, j), max(i, j)))
    for i in range(n):
        if (i, i) not in seen:
            raise ModelError(f"missing diagonal metric component g_{i + 1}{i + 1}")

    f_text = cp.get("density", "f", fallback="1")
    f_expr = parse_expression(f_text)

    lam = None
    ambient_file = None
    if "ambient" in cp:
        if cp.has_option("ambient", "lambda"):
            try:
                lam = cp.getfloat("ambient", "lambda")
            except ValueError as exc:
                raise ModelError(f"{path}: bad [ambient] lambda: {exc}")
            _require_finite(**{"lambda": lam})
        if cp.has_option("ambient", "coefficients"):
            # relative to the model file; an absolute path is kept
            ambient_file = os.path.join(os.path.dirname(path),
                                        cp.get("ambient", "coefficients"))

    default_point = np.zeros(n)
    if cp.has_option("space", "point"):
        text = cp.get("space", "point")
        vals = [v.strip() for v in text.split(",")]
        if len(vals) != n:
            raise ModelError(f"default point needs {n} coordinates")
        try:
            default_point = np.array([float(v) for v in vals])
        except ValueError as exc:
            raise ModelError(f"{path}: bad [space] point: {exc}")
        if not np.all(np.isfinite(default_point)):
            raise ModelError(f"{path}: non-finite [space] point {text!r}")

    return ModelSpec(
        name=str(path), n=n, m=m, mu=mu, coords=coords,
        g_exprs=g_exprs, f_expr=f_expr, lam=lam,
        ambient_file=ambient_file, default_point=default_point,
        domain="not declared by the model file",
    )
