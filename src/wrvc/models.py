"""Built-in metric measure structures, ambient-expansion generators, and the
plain-text model file format.

A ``ModelSpec`` is symbolic: metric and density components are expression
ASTs over named coordinates, hash-consed at construction (``expr.intern``)
so that a subexpression they share is one node, and compiled there into one
``expr.Program``, one instruction per distinct subexpression.  One private
pass runs it, into jet coefficient arrays at an interior chart point or
into arrays on grid nodes.  The metric's instructions are a prefix of the
program: every pass runs and checks the metric first, then the density
(``metric_at`` stops after the metric), so a model's metric errors come
before its density errors.
Structures carrying a proportionality constant ``lam`` (so that
P = lam g and J = (n+m) lam pointwise) also generate their ambient
expansion, ``lcf_candidate_ambient`` at (P, Y) = (lam g, m lam).
"""

from __future__ import annotations

import configparser
import math
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExpressionError, ModelError, OrderError
from .expr import Node, Num, Program, intern, parse_expression
from .geometry import MetricAtPoint
from .jets import Jet, n_coeffs
from .rho import (
    MAX_DIM,
    AmbientExpansion,
    determinacy_cap,
    load_ambient_file,
    obstruction_tensors,
    volume_coefficients,
)
from .weighted import MetricMeasurePoint, quasi_einstein_residual, weighted_invariants

BUILTIN_NAMES = (
    "euclidean",
    "round_sphere_stereographic",
    "hyperbolic_upper_half",
    "qe_sphere",
)

_COORD_NAMES = ("x", "y", "z", "w")
# the keys of each model-file section; [metric] keys are g_ij, checked as read
_FILE_KEYS = {"space": {"n", "m", "mu", "coords", "point"}, "metric": None,
              "density": {"f"}, "ambient": {"lambda", "coefficients"}}

DEFAULT_ORDER = 4
DEFAULT_AMBIENT_ORDER = 5


def _coord(c: float) -> str:
    """A coordinate by ``:g`` when that reads back as the same float, else by
    ``repr``, so that two points are never named alike."""
    text = f"{c:g}"
    return text if float(text) == c else repr(c)


def _coords(point) -> str:
    return ", ".join(_coord(float(c)) for c in point)


@dataclass
class ModelSpec:
    """Symbolic definition of a metric measure structure on one chart, and
    the one boundary for model input: the parameters are checked here, a
    point must have n finite coordinates (``_point``, before anything is
    evaluated), and every expression is evaluated by one private pass of
    the model's compiled program (``_evaluate``)."""

    name: str
    n: int
    m: float
    mu: float
    coords: tuple
    g_exprs: list              # n x n nested list of expression ASTs, read at construction
    f_expr: Node
    lam: float | None = None   # proportionality constant, when known
    lam_declared: bool = False  # lam read from a model file, so checked where it expands
    ambient_file: str | None = None
    default_point: np.ndarray = None
    domain: str = "all points of the chart"
    inside: Callable | None = None   # point(s) -> bool(s), true exactly on ``domain``

    def __post_init__(self):
        for name, value in (("m", self.m), ("mu", self.mu), ("lambda", self.lam)):
            if value is not None and not math.isfinite(value):
                raise ModelError(f"parameter {name} must be finite, got {value}")
        if not self.m >= 0:
            raise ModelError(
                f"model {self.name!r} needs a dimensional parameter m >= 0, "
                f"got m = {self.m:g}"
            )
        if not 1 <= self.n <= MAX_DIM:
            raise ModelError(f"model {self.name!r} needs a dimension n in "
                             f"1..{MAX_DIM}, got n = {self.n}")
        if len(self.coords) != self.n:
            raise ModelError(f"model {self.name!r} needs {self.n} coordinate "
                             f"names, got {len(self.coords)}: {self.coords}")
        if self.default_point is None:
            self.default_point = np.zeros(self.n)
        self.default_point = np.asarray(self.default_point, dtype=float)
        for i, name in enumerate(self.coords):
            if name in self.coords[:i]:
                raise ModelError(
                    f"model {self.name!r} repeats the coordinate name {name!r}"
                )
        # the ASTs hash-consed (``intern``) in evaluation order, metric
        # components row by row, then the density: a subexpression shared by
        # components, or by the metric and the density, is one node; the
        # program's outputs are the distinct metric components, then the
        # density, and each (i, j) slot holds its component's output
        *metric, f_node = intern(
            [node for row in self.g_exprs for node in row] + [self.f_expr])
        distinct = {id(node): node for node in metric}
        index = {key: i for i, key in enumerate(distinct)}
        slots = iter(index[id(node)] for node in metric)
        self._slots = np.array([[next(slots) for _ in row] for row in self.g_exprs])
        self._program = Program([*distinct.values(), f_node], self.coords)

    # -- the evaluation boundary ---------------------------------------

    def _point(self, point) -> np.ndarray:
        """A point as floats; a ``ModelError`` naming the model unless it has
        n coordinates, each finite (grid nodes are built finite and skip it)."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.n,):
            raise ModelError(f"model {self.name!r} needs a point with {self.n} coordinates")
        if not np.isfinite(point).all():
            raise ModelError(f"model {self.name!r} needs a finite point, got a "
                             f"non-finite coordinate in ({_coords(point)})")
        return point

    def _evaluate(self, point, order: int = 0, accept_metric=MetricAtPoint,
                  density: bool = True, chart: int = 1):
        """The one evaluation pass of the model's program, inside its error
        boundary, each result checked finite: on jets of ``order`` at a point
        (``_point``), the coordinates written straight into coefficient
        arrays, or, for order None, on the columns of an (N, n) array of
        nodes.  ``accept_metric(G, point)`` checks the (n, n, ...) metric,
        and then the density is evaluated unless ``density`` is False, so
        metric errors come first; for order None it is ``accept_metric(rows,
        slots, nodes)``, with each distinct metric component's values once
        (``rows``) and the ``(n, n)`` table of their indices, so no
        ``(n, n, N)`` array is gathered.  Errors name the nodes of sphere
        chart ``chart`` (``_at_point``).  Returns (its result, f or None);
        values have the coefficient axis, or the node axis, last."""
        program = self._program
        rows = len(program.outputs) - 1   # the distinct metric components
        if order is None:
            point = np.asarray(point, dtype=float)
            jet, values = None, point.T
            out = np.empty((rows + 1, len(point)))
        else:
            point = self._point(point)
            jet, nc = (self.n, order), n_coeffs(self.n, order)
            values = np.zeros((self.n, nc))
            values[:, 0] = point
            if order:   # x_i is the monomial of slot 1 + i
                values[:, 1:self.n + 1] = np.eye(self.n)
            out = np.zeros((rows + 1, nc))
        regs = program.registers(values)

        def run(what, first, last):
            # floating-point warnings are silenced: the values are checked
            # finite instead; a point or any node outside ``inside`` is an
            # error that names the model's domain too
            with (self._checking(what, point, "is undefined",
                                 f" (model domain: {self.domain})", chart),
                  np.errstate(over="ignore", invalid="ignore", divide="ignore")):
                if self.inside is not None and not np.all(self.inside(point)):
                    raise DomainError(f"{'the point' if point.ndim == 1 else 'a node'} "
                                      "lies outside the domain")
                program.run(regs, first, last, jet, out)
            self._require_finite_at(out[first:last], what, point, chart)

        run("metric", 0, rows)
        with self._checking("metric", point, chart=chart):
            metric = (accept_metric(out[:rows], self._slots, point) if order is None
                      else accept_metric(out[self._slots], point))
        if not density:
            return metric, None
        run("density", rows, rows + 1)
        return metric, out[rows]

    def _at_point(self, what: str, point, detail: str, chart: int = 1) -> str:
        """Where ``what`` failed: a point, or the nodes of sphere chart
        ``chart``.  The chart-2 node with grid coordinates x is read at the
        model point x/|x|^2, so a chart-2 node is named by both."""
        head = f"{what} of model {self.name!r} {detail}"
        if np.ndim(point) == 2:
            return f"{head} on {len(point)} {'' if chart == 1 else 'chart-2 '}grid nodes"
        where = f"point ({_coords(point)})"
        if chart == 2:
            point = np.asarray(point, dtype=float)
            grid = point / point.dot(point)
            where = f"chart-2 grid node ({_coords(grid)}), model {where}"
        return f"{head} at {where}"

    @contextmanager
    def _checking(self, what: str, point, detail: str = "is rejected",
                  note: str = "", chart: int = 1):
        """Name the model and the point on a ``DomainError`` raised while
        computing ``what`` at a point; a float overflow (``exp(1000)``,
        ``10^400``) reads as a value that is not finite."""
        try:
            yield
        except OverflowError as exc:
            raise DomainError(self._at_point(what, point, "is not finite", chart)) from exc
        except DomainError as exc:
            raise DomainError(
                f"{self._at_point(what, point, detail, chart)}{note}: {exc}"
            ) from exc

    def _require_finite_at(self, values, what: str, point, chart: int = 1):
        """A ``DomainError`` naming the point, or the first node of an
        (N, n) array, unless every value is finite."""
        finite = np.isfinite(values)
        if not finite.all():
            if np.ndim(point) == 2:
                point = point[np.argmin(finite.reshape(-1, len(point)).all(axis=0))]
            raise DomainError(self._at_point(what, point, "is not finite", chart))

    def _weight_on(self, nodes, accept_metric, chart: int = 1) -> np.ndarray:
        """f^m on an (N, n) array of the nodes of sphere chart ``chart``,
        from one ``_evaluate`` pass; f and f^m must be finite and positive."""
        f = self._evaluate(nodes, None, accept_metric, chart=chart)[1]
        if not (f > 0.0).all():
            raise DomainError(f"base density must be positive: the density of model "
                              f"{self.name!r} is not positive on every grid node")
        with np.errstate(over="ignore"):
            fm = f ** self.m
        ok = np.isfinite(fm) & (fm > 0.0)
        if not ok.all():
            raise DomainError(self._at_point(f"weight f^m (m = {self.m:g})",
                                             nodes[np.argmin(ok)],
                                             "is not a positive finite number", chart))
        return fm

    # -- pointwise structures ------------------------------------------

    def metric_at(self, point, order: int = DEFAULT_ORDER) -> MetricAtPoint:
        """Metric jets at a point."""
        return self._evaluate(point, order, density=False)[0]

    def structure_at(self, point, order: int = DEFAULT_ORDER) -> MetricMeasurePoint:
        g, f = self._evaluate(point, order)
        with self._checking("structure", point):
            return MetricMeasurePoint(g, Jet._unchecked(self.n, order, f),
                                      self.m, self.mu)

    def invariants_at(self, point):
        """Weighted invariants at a chart point, with the best-fit
        proportionality constant and its residual (``quasi_einstein_residual``),
        from the structure's 2-jet, all that they read.  Values that overflow
        (a nearly singular metric, a density near 0) raise a ``DomainError``
        naming the model and the point."""
        p = self.structure_at(point, 2)
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

        K = None means the coefficient file's own order, or for a generated
        expansion ``DEFAULT_AMBIENT_ORDER``, either lowered to the
        determinacy order when n+m is an even integer (an explicit K above
        it stays an error, raised where the volume series is read).  A
        coefficient file holds the default point's data, so another point
        raises ``ModelError``; its header must match the model's (n, m, mu),
        and a K above the file's raises ``OrderError``.  A generated expansion
        that overflows or starts from a non-positive density raises a
        ``DomainError`` naming the model and the point (a coefficient file's
        errors name ``path:line`` instead).
        """
        if self.lam is not None:
            g, f = self._evaluate(point, 0)
            if K is None:
                K = self._capped(DEFAULT_AMBIENT_ORDER)
            # an overflow (inf * 0 = nan) meets the expansion's finiteness
            # check instead of printing a warning
            with self._checking("ambient expansion", point), np.errstate(all="ignore"):
                expansion = lcf_candidate_ambient(g.matrix, f[0], self.lam * g.matrix,
                                                  self.m * self.lam, self.m, K)
            if self.lam_declared:
                self._require_declared_lam(point)
            return expansion
        point = self._point(point)   # the evaluating branch above checks it in _evaluate
        if self.ambient_file is not None:
            if not np.array_equal(point, self.default_point):
                raise ModelError(f"{self.ambient_file} holds the ambient data of model "
                                 f"{self.name!r} at ({_coords(self.default_point)}) "
                                 f"only, not at ({_coords(point)})")
            return self._file_ambient(K)
        raise ModelError(
            f"model {self.name!r} carries no ambient generator "
            "(no proportionality constant and no coefficient file)"
        )

    def _require_declared_lam(self, point):
        """A ``ModelError`` unless ``quasi_einstein_residual`` (the
        ``qe_residual`` of ``curvature``) is at most 1e-9 at the point and the
        fitted J/(n+m) is lam to 1e-9 relative (floored at 1e-3: flat is 0)."""
        _, fitted, residual = self.invariants_at(point)
        if (residual > 1e-9
                or abs(fitted - self.lam) > 1e-9 * max(abs(fitted), abs(self.lam), 1e-3)):
            raise ModelError(
                f"{self._at_point('ambient expansion', point, 'is rejected')}: "
                f"[ambient] lambda = {self.lam:.10g} does not hold: the structure fits "
                f"lambda = J/(n+m) = {fitted:.10g} with qe_residual = {residual:.3g}")

    def volume_coefficients_at(self, point, K: int | None = None):
        """v_1..v_K of the ambient expansion at a chart point (``ambient_at``)
        and, for K >= 2, the sup norms of its obstruction tensors.  A series
        that overflows (a huge but finite ``lam``) raises a ``DomainError``
        naming the model and the point."""
        expansion = self.ambient_at(point, K)
        with np.errstate(all="ignore"):
            coeffs = volume_coefficients(expansion, self.m)
            norms = (obstruction_tensors(expansion).sup_norms()
                     if expansion.K >= 2 else np.zeros(0))
        self._require_finite_at(np.hstack([coeffs.v, norms]), "volume series", point)
        return coeffs, norms

    def _capped(self, K: int) -> int:
        """K, lowered to the determinacy order when n+m is an even integer."""
        return min(K, int(determinacy_cap(self.n, self.m) or K))

    def _file_ambient(self, K: int | None) -> AmbientExpansion:
        path = self.ambient_file
        expansion, _, _ = load_ambient_file(path, model=self)
        if K is None:
            K = self._capped(expansion.K)
        elif not 1 <= K <= expansion.K:
            raise OrderError(f"order K = {K} outside 1..{expansion.K} held by {path}")
        return AmbientExpansion(
            gcoeffs=expansion.gcoeffs[: K + 1],
            fcoeffs=expansion.fcoeffs[: K + 1],
        )


# -- builtin structures ---------------------------------------------------


def _delta_exprs(n, diagonal: str):
    diag, zero = parse_expression(diagonal), Num(0.0)
    return [[diag if i == j else zero for j in range(n)] for i in range(n)]


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
    if not 2 <= n <= len(_COORD_NAMES):   # one name per coordinate
        raise ModelError(f"built-in models support 2 <= n <= "
                         f"{len(_COORD_NAMES)}, got n = {n}")
    coords = _COORD_NAMES[:n]
    sphere = {"g_exprs": _delta_exprs(n, f"4/(1+{_r2_text(n)})^2"), "domain":
              "any chart point (the chart covers the sphere minus a point)"}
    if name == "qe_sphere":
        m = 2.0 if m is None else float(m)
        mu = 1.0 if mu is None else float(mu)
        c2 = (m - 1) * mu / (n - 1)
        if not math.isfinite(c2):
            raise ModelError(
                "qe_sphere needs a finite density constant (m-1) mu/(n-1) "
                f"(got m = {m}, mu = {mu})"
            )
        if m <= 1 or mu <= 0:
            raise ModelError(
                f"qe_sphere needs m > 1 and mu > 0 (got m = {m}, mu = {mu}): "
                "the constant density would not be real"
            )
        return ModelSpec(name=name, n=n, m=m, mu=mu, coords=coords,
                         f_expr=Num(math.sqrt(c2)),
                         lam=(n - 1) / (n + m - 1) / 2.0, **sphere)

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
        return ModelSpec(name=name, n=n, m=m, mu=mu, coords=coords, f_expr=f_expr,
                         lam=0.5 if m == 0 else None, **sphere)
    # hyperbolic_upper_half
    lam = -0.5 if m == 0 else None
    last = coords[-1]
    return ModelSpec(
        name=name, n=n, m=m, mu=mu, coords=coords,
        g_exprs=_delta_exprs(n, f"{last}^-2"), f_expr=f_expr, lam=lam,
        default_point=np.eye(n)[-1],
        domain=f"points with {last} > 0", inside=lambda x: x[..., -1] > 0.0,
    )


# -- ambient generators -----------------------------------------------------


def lcf_candidate_ambient(g, f, P, Y: float, m: float, K: int) -> AmbientExpansion:
    """Conformally-flat-type expansion from pointwise data (P, Y):

        g_rho = g (1 + rho g^{-1}P)^2 = g + 2 rho P + rho^2 P g^{-1} P,
        f_rho = f (1 + rho Y/m).

    The density slope Y/m is taken to be 0 at m = 0 (where Y vanishes).
    The expansion is exact for proportional structures: at (P, Y) =
    (lam g, m lam) it is (1 + lam rho)^2 g, (1 + lam rho) f for m > 0.
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
    Any other section or key, and a component given both as g_ij and as
    g_ji, is an error.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            text = fh.read()
        cp.read_string(text, source=str(path))
    except (OSError, UnicodeDecodeError):
        raise ModelError(f"cannot read model file {path!r}")
    except configparser.DuplicateOptionError as exc:
        raise ModelError(f"{path}:{exc.lineno}: duplicate key {exc.option!r} "
                         f"in [{exc.section}]")
    except configparser.MissingSectionHeaderError as exc:
        raise ModelError(f"{path}:{exc.lineno}: no section header before "
                         f"{exc.line.strip()!r}")
    except configparser.ParsingError as exc:
        num, lines = exc.errors[0][0], text.split("\n")   # split as the parser does
        raise ModelError(f"{path}:{num}: cannot parse {lines[num - 1].strip()!r}")
    except configparser.Error as exc:
        raise ModelError(f"{path}: {str(exc).splitlines()[0]}")
    for section in (["DEFAULT"] if cp.defaults() else []) + cp.sections():
        if section not in _FILE_KEYS:
            raise ModelError(f"{path}: unknown section [{section}]")
        for key in cp.options(section):
            if _FILE_KEYS[section] is not None and key not in _FILE_KEYS[section]:
                raise ModelError(f"{path}: unknown key {key!r} in [{section}]")
    if "space" not in cp or "metric" not in cp:
        raise ModelError(f"{path}: model file needs [space] and [metric] sections")
    try:
        n = cp.getint("space", "n")
        m = cp.getfloat("space", "m", fallback=0.0)
        mu = cp.getfloat("space", "mu", fallback=0.0)
    except ValueError as exc:
        raise ModelError(f"{path}: bad [space] entry: {exc}")
    coords_raw = cp.get("space", "coords", fallback=", ".join(_COORD_NAMES[:n]))
    coords = tuple(c.strip() for c in coords_raw.split(",") if c.strip())

    def parse(section, key, text):
        # the parser's message leads, as for an expression given elsewhere
        try:
            return parse_expression(text)
        except ExpressionError as exc:
            raise ModelError(f"{exc} in [{section}] {key} of {path}")

    # (i, j) with i >= j -> its AST and its key; key syntax bounds i, j to 0..8
    entries, given = {}, {}
    for key, text in cp.items("metric"):
        if not (key.startswith("g_") and len(key) == 4 and key[2:].isdecimal()):
            raise ModelError(
                f"{path}: bad metric key {key!r}; use g_ij with 1-based i, j"
            )
        i, j = int(key[2]) - 1, int(key[3]) - 1
        if not (0 <= i < n and 0 <= j < n):
            raise ModelError(f"{path}: metric key {key!r} outside the {n}x{n} range")
        ij = max(i, j), min(i, j)
        if ij in given:
            raise ModelError(f"{path}: [metric] gives both {given[ij]} and {key}; keep one")
        given[ij] = key
        entries[ij] = parse("metric", key, text)
    for i in range(n):   # stops by i = 9, so the table below stays small
        if (i, i) not in entries:
            raise ModelError(f"{path}: missing diagonal metric component g_{i + 1}{i + 1}")
    g_exprs = [[entries.get((max(i, j), min(i, j)), Num(0.0)) for j in range(n)]
               for i in range(n)]

    f_expr = parse("density", "f", cp.get("density", "f", fallback="1"))

    lam = None
    ambient_file = None
    if "ambient" in cp:
        if cp.has_option("ambient", "lambda") and cp.has_option("ambient", "coefficients"):
            raise ModelError(f"{path}: [ambient] gives both lambda and coefficients; "
                             "keep one")
        if cp.has_option("ambient", "lambda"):
            try:
                lam = cp.getfloat("ambient", "lambda")
            except ValueError as exc:
                raise ModelError(f"{path}: bad [ambient] lambda: {exc}")
        if cp.has_option("ambient", "coefficients"):
            # relative to the model file; an absolute path is kept
            ambient_file = os.path.join(os.path.dirname(path),
                                        cp.get("ambient", "coefficients"))

    default_point = None
    if cp.has_option("space", "point"):
        text = cp.get("space", "point")
        vals = [v.strip() for v in text.split(",")]
        if len(vals) != n:
            raise ModelError(f"{path}: default point needs {n} coordinates")
        try:
            default_point = np.array([float(v) for v in vals])
        except ValueError as exc:
            raise ModelError(f"{path}: bad [space] point: {exc}")
        if not np.all(np.isfinite(default_point)):
            raise ModelError(f"{path}: non-finite [space] point {text!r}")

    return ModelSpec(
        name=str(path), n=n, m=m, mu=mu, coords=coords,
        g_exprs=g_exprs, f_expr=f_expr, lam=lam, lam_declared=lam is not None,
        ambient_file=ambient_file, default_point=default_point,
        domain="not declared by the model file",
    )
