"""The coefficient-array geometry against an independent exact route, and
structural guards on how many jets and expression evaluations the
pointwise pipeline makes.

The reference differentiates random polynomial metrics exactly: sympy's
polynomial ring QQ[y] shifts each polynomial to the chart point, which
gives its exact Taylor coefficients, and the inverse, Christoffel
symbols, curvature and Hessian follow from those derivative values by the
Leibniz rule in rational arithmetic, the determinant by the permutation
expansion in that ring.  It shares no product table, series or inverse with the code
under test.
"""

import ast
import dataclasses
import gc
import math
import weakref
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, Matrix
from sympy.polys.rings import ring

import wrvc.expr
import wrvc.models
from wrvc.errors import ModelError
from wrvc.expr import parse_expression
from wrvc.geometry import (
    MetricAtPoint,
    _inverse_coeffs,
    christoffel,
    christoffel_coeffs,
    curvature,
    hessian,
    riemann_coeffs,
)
from wrvc.jets import Jet, _exponents, n_coeffs
from wrvc.models import ModelSpec, builtin_model, load_model_file
from wrvc.variational import QuadratureGrid
from wrvc.weighted import check_conformal_laws, weighted_invariants

REL_TOL = 1e-12


# -- exact reference ------------------------------------------------------------


def multi_indices(n, max_degree):
    """All multi-indices of total degree <= max_degree, by degree."""
    out = [a for a in product(range(max_degree + 1), repeat=n) if sum(a) <= max_degree]
    return sorted(out, key=sum)


def binom(alpha, beta):
    return math.prod(math.comb(a, b) for a, b in zip(alpha, beta))


def factorial(alpha):
    return math.prod(math.factorial(a) for a in alpha)


def sub(alpha, beta):
    return tuple(a - b for a, b in zip(alpha, beta))


def below(alpha):
    """Multi-indices beta <= alpha componentwise."""
    return product(*(range(a + 1) for a in alpha))


def taylor_at(poly, point):
    """Exact Taylor coefficients at ``point`` of a polynomial {alpha: coeff},
    as an element of sympy's ring QQ[y] in the shifted variables y = x - point."""
    R, ys = shift_ring(len(point))
    shifted = [QQ(p.numerator, p.denominator) + y for p, y in zip(point, ys)]
    out = R.zero
    for alpha, c in poly.items():
        term = R(QQ(c.numerator, c.denominator))
        for x, k in zip(shifted, alpha):
            term *= x**k
        out += term
    return out


@lru_cache(maxsize=None)
def shift_ring(n):
    R, *ys = ring(",".join(f"y{i}" for i in range(n)), QQ)
    return R, ys


def derivatives(element, n, max_degree):
    """{alpha: d^alpha at the point} from a shifted ring element, as Fractions."""
    terms = dict(element.terms())
    out = {}
    for alpha in multi_indices(n, max_degree):
        c = terms.get(alpha, QQ(0))
        out[alpha] = Fraction(int(c.numerator), int(c.denominator)) * factorial(alpha)
    return out


def matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def exact_inverse(a):
    inv = Matrix(a).inv()
    return [[Fraction(int(v.p), int(v.q)) for v in row] for row in inv.tolist()]


def permutation_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class ExactGeometry:
    """Exact derivative values at the chart point of a polynomial metric."""

    def __init__(self, entries, point, order):
        n = len(point)
        self.n, self.order = n, order
        shifted = [[taylor_at(entries[i, j], point) for j in range(n)] for i in range(n)]
        entry = [[derivatives(shifted[i][j], n, order) for j in range(n)]
                 for i in range(n)]
        alphas = multi_indices(n, order)
        # dg[alpha][i][j] = d^alpha g_ij at the point
        self.dg = {a: [[entry[i][j][a] for j in range(n)] for i in range(n)]
                   for a in alphas}
        # d^alpha (g^-1) from d^alpha (g g^-1) = 0 for alpha != 0
        zero = (0,) * n
        h0 = exact_inverse(self.dg[zero])
        self.dh = {zero: h0}
        for a in alphas[1:]:
            acc = [[Fraction(0)] * n for _ in range(n)]
            for b in below(a):
                if sum(b) > 0:
                    c = binom(a, b)
                    prod = matmul(self.dg[b], self.dh[sub(a, b)])
                    acc = [[x + c * y for x, y in zip(r, s)] for r, s in zip(acc, prod)]
            self.dh[a] = [[-v for v in row] for row in matmul(h0, acc)]
        # d^alpha Gamma^k_ij for |alpha| <= order - 1
        self.dgamma = {
            a: [[[self._gamma_derivative(a, k, i, j) for j in range(n)]
                 for i in range(n)] for k in range(n)]
            for a in multi_indices(n, order - 1)
        }
        # determinant by the permutation expansion, in the shifted ring;
        # products drop terms of degree > order, which no derivative read
        # here sees (without that, n = 5 takes seconds)
        ring = shifted[0][0].ring

        def times(p, q):
            return ring.from_dict({a: c for a, c in (p * q).items() if sum(a) <= order})

        det = sum(
            (permutation_sign(perm)
             * reduce(times, (shifted[i][perm[i]] for i in range(n)), ring.one)
             for perm in permutations(range(n))),
            ring.zero,
        )
        self.ddet = derivatives(det, n, order)

    def _first_kind(self, a, l, i, j):
        """d^alpha (d_i g_jl + d_j g_il - d_l g_ij)."""
        up = lambda s: tuple(x + int(t == s) for t, x in enumerate(a))  # noqa: E731
        return self.dg[up(i)][j][l] + self.dg[up(j)][i][l] - self.dg[up(l)][i][j]

    def _gamma_derivative(self, a, k, i, j):
        total = Fraction(0)
        for b in below(a):
            c = binom(a, b)
            for l in range(self.n):
                total += c * self.dh[b][k][l] * self._first_kind(sub(a, b), l, i, j)
        return total / 2

    def gamma(self, alpha):
        return np.array(self.dgamma[alpha], dtype=float)

    def curvature(self):
        n = self.n
        e = [tuple(int(t == s) for t in range(n)) for s in range(n)]
        G = self.dgamma[(0,) * n]
        dG = [self.dgamma[e[l]] for l in range(n)]   # dG[l][k][i][j]
        up = [[[[dG[c][a][d][b] - dG[d][a][c][b]
                 + sum(G[a][c][s] * G[s][d][b] - G[a][d][s] * G[s][c][b]
                       for s in range(n))
                 for d in range(n)] for c in range(n)] for b in range(n)]
              for a in range(n)]
        g0, h0 = self.dg[(0,) * n], self.dh[(0,) * n]
        riem = [[[[sum(g0[a][s] * up[s][b][c][d] for s in range(n))
                   for d in range(n)] for c in range(n)] for b in range(n)]
                for a in range(n)]
        ric = [[sum(up[a][b][a][d] for a in range(n)) for d in range(n)]
               for b in range(n)]
        scalar = sum(h0[b][d] * ric[b][d] for b in range(n) for d in range(n))
        return (np.array(riem, dtype=float), np.array(ric, dtype=float),
                float(scalar))

    def hessian(self, du):
        """nabla^2 u at the point from d^alpha u (|alpha| <= 2)."""
        n = self.n
        e = [tuple(int(t == s) for t in range(n)) for s in range(n)]
        G = self.dgamma[(0,) * n]
        out = [[du[tuple(x + y for x, y in zip(e[i], e[j]))]
                - sum(G[k][i][j] * du[e[k]] for k in range(n))
                for j in range(n)] for i in range(n)]
        return np.array(out, dtype=float)


def assert_rel_close(actual, expected, what):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(actual - expected)))
    assert err <= REL_TOL * scale, f"{what}: error {err:.3e} at scale {scale:.3e}"


# -- random polynomial metrics ----------------------------------------------------

def metric_case(integer, n, order):
    """(n, order, point, entries, u): entries[(i, j)] and u map multi-indices
    of degree <= 2 (u: <= 3) to dyadic coefficients, which are exact in
    both float and rational arithmetic, as are the points; g = 2 delta +
    entries is diagonally dominant, hence positive definite, near the
    point.  ``integer(lo, hi)`` draws one integer in [lo, hi]."""
    small = lambda: Fraction(integer(-8, 8), 64)  # noqa: E731
    point = [Fraction(integer(-16, 16), 64) for _ in range(n)]
    entries = {}
    for i in range(n):
        for j in range(i, n):
            poly = {a: small() for a in multi_indices(n, 2)}
            if i == j:
                poly[(0,) * n] += 2
            entries[i, j] = entries[j, i] = poly
    u = {a: small() for a in multi_indices(n, 3)}
    return n, order, point, entries, u


@st.composite
def polynomial_metrics(draw):
    integer = lambda lo, hi: draw(st.integers(lo, hi))  # noqa: E731
    return metric_case(integer, integer(2, 4), integer(2, 4))


def jet_poly(poly, xs):
    n, order = xs[0].dim, xs[0].order
    out = Jet.constant(0.0, n, order)
    for a, c in poly.items():
        term = Jet.constant(float(c), n, order)
        for x, k in zip(xs, a):
            for _ in range(k):
                term = term * x
        out = out + term
    return out


@settings(max_examples=12, deadline=None)
@given(polynomial_metrics())
def test_array_geometry_matches_exact_derivatives(case):
    check_against_exact(case)


def test_array_geometry_matches_exact_derivatives_beyond_four_dimensions():
    rng = np.random.default_rng(5)
    check_against_exact(metric_case(lambda lo, hi: int(rng.integers(lo, hi + 1)), 5, 2))


def check_against_exact(case):
    n, order, point, entries, u_poly = case
    exact = ExactGeometry(entries, point, order)

    jx = [Jet.variable(i, float(point[i]), n, order) for i in range(n)]
    G = np.array([[jet_poly(entries[i, j], jx).coeffs for j in range(n)]
                  for i in range(n)])
    metric = MetricAtPoint(G, [float(p) for p in point])

    gamma = christoffel_coeffs(metric.G, n, metric.order, metric.inverse_matrix)
    for alpha in multi_indices(n, order - 1):
        got = [[[Jet(n, order - 1, gamma[k, i, j]).partial(alpha) for j in range(n)]
                for i in range(n)] for k in range(n)]
        assert_rel_close(got, exact.gamma(alpha), f"Gamma d^{alpha}")

    inv = _inverse_coeffs(metric.G, n, metric.order, metric.inverse_matrix)
    det = metric.det_jet()
    for alpha in multi_indices(n, order):
        got = [[Jet(n, order, inv[i, j]).partial(alpha) for j in range(n)] for i in range(n)]
        assert_rel_close(got, np.array(exact.dh[alpha], dtype=float), f"g^-1 d^{alpha}")
        assert_rel_close(det.partial(alpha), float(exact.ddet[alpha]), f"det d^{alpha}")

    riem, ric, scalar = exact.curvature()
    bundle = curvature(metric)
    assert_rel_close(bundle.riem, riem, "Riemann")
    assert_rel_close(bundle.ric, ric, "Ricci")
    assert_rel_close(bundle.scalar, scalar, "scalar")

    du = derivatives(taylor_at(u_poly, point), n, 2)
    assert_rel_close(hessian(jet_poly(u_poly, jx), metric), exact.hessian(du), "Hessian")


@pytest.mark.parametrize("n, order", [(2, 4), (3, 3)])
def test_geometry_kernels_are_exact_on_fraction_coefficients(n, order):
    # the jet core is dtype-generic: a metric's Taylor coefficients given as
    # Fractions stay Fractions through the inverse, Christoffel and Riemann
    # kernels, equal to the exact reference with no rounding at all
    rng = np.random.default_rng(40 + n)
    _, _, point, entries, _ = metric_case(lambda lo, hi: int(rng.integers(lo, hi + 1)),
                                          n, order)
    exact = ExactGeometry(entries, point, order)
    E = [tuple(a) for a in _exponents(n, order).tolist()]
    G = np.array([[[exact.dg[a][i][j] / factorial(a) for a in E] for j in range(n)]
                  for i in range(n)], dtype=object)
    G0inv = np.array(exact.dh[(0,) * n], dtype=object)
    inv = _inverse_coeffs(G, n, order, G0inv)
    gamma = christoffel_coeffs(G, n, order, G0inv)
    riem = riemann_coeffs(gamma, n, order - 2)
    for got in (inv, gamma, riem):
        assert all(type(c) is Fraction for c in got.flat)

    def taylor(a, value):   # a derivative value as the Taylor coefficient of slot a
        return value / factorial(a)

    dG = exact.dgamma   # dG[alpha][k][i][j] = d^alpha Gamma^k_ij
    up = lambda a, s: tuple(x + int(t == s) for t, x in enumerate(a))  # noqa: E731
    for c, a in enumerate(E):
        assert inv[..., c].tolist() == [[taylor(a, v) for v in row] for row in exact.dh[a]]
        if sum(a) <= order - 1:
            assert gamma[..., c].tolist() == [[[taylor(a, v) for v in row] for row in block]
                                              for block in dG[a]]
        if sum(a) <= order - 2:
            # d^alpha R^p_{qrs} by the Leibniz rule on the exact Gamma derivatives
            want = [[[[taylor(a, dG[up(a, r)][p][s][q] - dG[up(a, s)][p][r][q] + sum(
                binom(a, b) * (dG[b][p][r][t] * dG[sub(a, b)][t][s][q]
                               - dG[b][p][s][t] * dG[sub(a, b)][t][r][q])
                for b in below(a) for t in range(n)))
                for s in range(n)] for r in range(n)] for q in range(n)] for p in range(n)]
            assert riem[..., c].tolist() == want


# -- structural guards --------------------------------------------------------------


@contextmanager
def counting_jets():
    """Count every Jet object built, through the checked or the internal
    constructor."""
    counter = {"built": 0}
    init, unchecked = Jet.__dict__["__init__"], Jet.__dict__["_unchecked"]
    raw = unchecked.__func__

    def counted_init(self, *args, **kwargs):
        counter["built"] += 1
        init(self, *args, **kwargs)

    def counted_unchecked(*args):
        counter["built"] += 1
        return raw(*args)

    Jet.__init__ = counted_init
    Jet._unchecked = staticmethod(counted_unchecked)
    try:
        yield counter
    finally:
        Jet.__init__ = init
        Jet._unchecked = unchecked


def deformed_sphere(n=3, m=2.0, mu=1.0):
    """qe_sphere(n, m, mu) under (e^{2w} g, e^{w} f) for a quadratic w, so
    the density is not constant and every phi-term is exercised."""
    names = ("x", "y", "z", "w")[:n]
    omega = "0.1+0.2*x-0.15*y+0.05*x*y+0.1*x^2" if n >= 2 else "0.1*x"
    r2 = "+".join(f"{v}^2" for v in names)
    diag = parse_expression(f"4*exp(2*({omega}))/(1+{r2})^2")
    zero = parse_expression("0")
    f0 = math.sqrt((m - 1) * mu / (n - 1))
    return ModelSpec(
        name="deformed", n=n, m=m, mu=mu, coords=names,
        g_exprs=[[diag if i == j else zero for j in range(n)] for i in range(n)],
        f_expr=parse_expression(f"{f0!r}*exp({omega})"),
    )


def test_weighted_invariants_builds_few_jets():
    p = deformed_sphere().structure_at([0.2, -0.1, 0.3], order=4)
    with counting_jets() as counter:
        weighted_invariants(p)
    assert counter["built"] <= 2


@pytest.mark.parametrize("order", [2, 4])
def test_evaluated_structures_are_freed_without_the_cycle_collector(order):
    # the cached Christoffel symbols and phi hold no reference back to
    # themselves, so dropping a structure frees its jets at once
    model = deformed_sphere()
    gc.disable()
    try:
        p = model.structure_at([0.2, -0.1, 0.3], order=order)
        weighted_invariants(p)
        check_conformal_laws(p, [Jet.variable(0, 0.2, 3, 2) * 0.3])
        refs = [weakref.ref(obj) for obj in (p, p.g, christoffel(p.g), p.phi())]
        del p
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


@pytest.mark.parametrize("model", [
    builtin_model("qe_sphere", 3, 2.0, 1.0),
    builtin_model("hyperbolic_upper_half", 4),
    deformed_sphere(),
])
def test_christoffel_is_one_cached_coefficient_array(model):
    metric = model.metric_at(model.default_point + 0.1, order=4)
    n = model.n
    gamma = christoffel(metric)
    assert isinstance(gamma, np.ndarray)
    assert gamma.shape == (n, n, n, n_coeffs(n, 1))   # the 2-jet's, whatever the order
    assert christoffel(metric) is gamma
    curvature(metric)
    assert christoffel(metric) is gamma
    assert not hasattr(metric, "g")


def test_counting_jets_sees_both_constructors():
    with counting_jets() as counter:
        x = Jet.variable(0, 0.5, 2, 3)   # checked constructor
        x * x                           # internal constructor
    assert counter["built"] == 2


def _pointwise_values(p):
    """Weighted invariants and curvature of a structure, one array each."""
    w, b = weighted_invariants(p), curvature(p.g)
    return [w.ric_phi, w.P, np.array([w.r_phi, w.J, w.Y, w.F_phi]),
            b.riem, b.ric, np.array([b.scalar])]


@pytest.mark.parametrize("model", [
    # n + m must exceed 2: the n = 2 built-ins other than qe_sphere take m = 1
    builtin_model(name, n, m=1.0 if n == 2 and name != "qe_sphere" else None)
    for name in wrvc.models.BUILTIN_NAMES for n in (2, 3, 4)
] + [builtin_model("euclidean", 3, m=2.0), deformed_sphere(),
     deformed_sphere(4, 2.5, 0.5)], ids=lambda model: f"{model.name}-{model.n}")
def test_pointwise_values_do_not_depend_on_the_jet_order(model):
    # everything printed reads the 2-jets, so jets of order 2..6 agree
    point = model.default_point + np.linspace(0.1, 0.25, model.n)
    values = [_pointwise_values(model.structure_at(point, order=k)) for k in range(2, 7)]
    for quantity in zip(*values):
        scale = max(np.max(np.abs(q)) for q in quantity)
        for q in quantity[1:]:
            assert np.max(np.abs(q - quantity[0])) <= 1e-14 * scale


def _count_node_values(monkeypatch):
    """Record the node of every program instruction that a pass runs (its
    constants were computed when the program was compiled)."""
    computed = []
    original = wrvc.expr.Program.run

    def counted(program, regs, first, last, *args):
        computed.extend(program.nodes[program.ends[first]:program.ends[last]])
        return original(program, regs, first, last, *args)

    monkeypatch.setattr(wrvc.expr.Program, "run", counted)
    return computed


def _subtrees(nodes):
    """Every subexpression of the ASTs, each once (equal by structure)."""
    seen, stack = [], list(nodes)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.append(node)
        stack.extend(wrvc.expr._children(node))
    return seen


def _once_each(computed, nodes):
    """Each distinct subexpression of ``nodes`` was computed exactly once."""
    distinct = _subtrees(nodes)
    assert len(computed) == len(distinct)
    assert all(sum(node == other for other in computed) == 1 for node in distinct)


def _components(model):
    return [node for row in model.g_exprs for node in row]


@pytest.mark.parametrize("model", [
    builtin_model("qe_sphere", 3, 2.0, 1.0),
    builtin_model("hyperbolic_upper_half", 4),
    deformed_sphere(),
])
def test_metric_at_evaluates_each_distinct_component_once(monkeypatch, model):
    computed = _count_node_values(monkeypatch)
    point = model.default_point + 0.1
    metric = model.metric_at(point)
    _once_each(computed, _components(model))
    # so does binding the model to a grid, once per chart, whether or not
    # its metric is the round one that grids need; the same pass then
    # evaluates the (constant) density once, unless the metric was rejected
    if model.n in (2, 3):
        computed.clear()
        grid = QuadratureGrid(model.n, resolution=8)
        if model.name == "qe_sphere":
            grid.bind(model)
            half = len(computed) // 2
            for one_pass in (computed[:half], computed[half:]):
                _once_each(one_pass, _components(model) + [model.f_expr])
        else:
            with pytest.raises(ModelError, match="round stereographic metric"):
                grid.bind(model)
            _once_each(computed, _components(model))
    # and the jets agree with evaluating every component on its own
    monkeypatch.undo()
    env = {name: Jet.variable(i, point[i], model.n, 4) for i, name in enumerate(model.coords)}
    for i in range(model.n):
        for j in range(model.n):
            val = wrvc.expr.evaluate(model.g_exprs[i][j], env)
            if not isinstance(val, Jet):
                val = Jet.constant(float(val), model.n, 4)
            assert np.array_equal(metric.G[i, j], val.coeffs)


def test_metric_at_model_file_mirrors_lower_triangle(monkeypatch, tmp_path):
    path = tmp_path / "offdiag.cfg"
    path.write_text(
        "[space]\nn = 2\nm = 2\nmu = 0\n\n"
        "[metric]\ng_11 = 2+x^2\ng_21 = 0.3*x*y\ng_22 = 1+y^2\n"
    )
    spec = load_model_file(path)
    computed = _count_node_values(monkeypatch)
    metric = spec.metric_at([0.2, 0.1])
    # 2, x, x^2, 2+x^2, 0.3, 0.3*x, y, 0.3*x*y, 1, y^2, 1+y^2: the 2 of
    # 2+x^2 is the exponent's, and g_12 is g_21
    _once_each(computed, _components(spec))
    assert len(computed) == 11
    assert np.array_equal(metric.G[0, 1], metric.G[1, 0])


@pytest.mark.parametrize("model", [
    builtin_model("qe_sphere", 3, 2.0, 1.0),
    builtin_model("euclidean", 3, m=2.0),   # f = 1 is the metric's 1
    deformed_sphere(),
])
def test_structure_at_evaluates_each_distinct_ast_once(monkeypatch, model):
    computed = _count_node_values(monkeypatch)
    p = model.structure_at(model.default_point + 0.1)
    _once_each(computed, _components(model) + [model.f_expr])
    # the deformed sphere's metric has 31 subexpressions and its density
    # 20, of which 17 (the exponent and its parts) are the metric's
    assert len(computed) == {"euclidean": 2, "qe_sphere": 16, "deformed": 34}[model.name]
    # the same values as the metric on its own, and as the density next to
    # a flat metric instead of the model's
    monkeypatch.undo()
    assert np.array_equal(p.g.G, model.metric_at(model.default_point + 0.1).G)
    flat = dataclasses.replace(model, g_exprs=[[parse_expression(str(int(i == j)))
                                                for j in range(model.n)]
                                               for i in range(model.n)])
    assert np.array_equal(p.f.coeffs,
                          flat.structure_at(model.default_point + 0.1).f.coeffs)


def test_deformed_sphere_evaluates_its_exponent_once(monkeypatch):
    # the exponent w sits in the metric, 4 e^{2w}/(1+r^2)^2, and in the
    # density, f0 e^w: one pass computes it, and each of its terms, once
    model = deformed_sphere()
    omega = parse_expression("0.1+0.2*x-0.15*y+0.05*x*y+0.1*x^2")
    computed = _count_node_values(monkeypatch)
    model.structure_at([0.2, -0.1, 0.3])
    assert sum(node == omega for node in computed) == 1
    assert sum(node == parse_expression("0.05*x*y") for node in computed) == 1
    # the metric alone computes it once as well
    computed.clear()
    model.metric_at([0.2, -0.1, 0.3])
    assert sum(node == omega for node in computed) == 1


def test_expressions_are_evaluated_only_by_models():
    # wrvc.models is the one boundary that evaluates model expressions: it
    # and expr's own ``evaluate`` are all that compile a program, and no
    # module calls ``evaluate``
    compiled, calls = set(), set()
    for path in Path(wrvc.models.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "Program":
                    compiled.add(path.name)
                if name == "evaluate":
                    calls.add(path.name)
    assert compiled == {"expr.py", "models.py"}
    assert calls == set()


def test_structure_at_builds_one_jet():
    # the program runs on coefficient arrays: the one jet is the density's
    model = deformed_sphere()
    with counting_jets() as counter:
        p = model.structure_at([0.2, -0.1, 0.3], order=4)
    assert counter["built"] == 1
    assert isinstance(p.f, Jet)
