import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expr_reference import program_values, reference_values
from wrvc.errors import DomainError, ExpressionError, ModelError
from wrvc.expr import MAX_DEPTH, Num, Program, Var, evaluate, parse_expression, to_string
from wrvc.geometry import curvature
from wrvc.jets import Jet
from wrvc.models import (
    BUILTIN_NAMES,
    ModelSpec,
    builtin_model,
    lcf_candidate_ambient,
    load_model_file,
)
from wrvc.rho import obstruction_tensors, save_ambient_file, volume_coefficients
from wrvc.weighted import (
    quasi_einstein_residual,
    sigma_k_phi,
    weighted_invariants,
)


# -- expression parsing ---------------------------------------------------


def test_parse_and_evaluate_metric_component():
    ast = parse_expression("4/(1+x^2+y^2)^2")
    assert evaluate(ast, {"x": 0.0, "y": 0.0}) == pytest.approx(4.0)


def test_jet_evaluation_derivative():
    ast = parse_expression("sin(x)*cos(x)")
    x = Jet.variable(0, 0.0, 1, 3)
    val = evaluate(ast, {"x": x})
    assert val.partial((1,)) == pytest.approx(1.0)


def test_domain_error_is_not_parse_error():
    ast = parse_expression("log(0.0)")
    with pytest.raises(DomainError):
        evaluate(ast, {})


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1 + * 2")
    assert err.value.position == 4


def test_unknown_identifier_at_evaluation():
    ast = parse_expression("1 + q")
    with pytest.raises(ExpressionError) as err:
        evaluate(ast, {"x": 1.0})
    assert "q" in str(err.value)


def test_unknown_function_and_arity():
    with pytest.raises(ExpressionError):
        parse_expression("sinh(1)")
    with pytest.raises(ExpressionError):
        parse_expression("pow(2)")
    with pytest.raises(ExpressionError):
        parse_expression("sqrt(1, 2)")


def test_precedence_structure():
    # ^ over unary minus over * over +, right-assoc ^
    assert evaluate(parse_expression("-2^2"), {}) == pytest.approx(-4.0)
    assert evaluate(parse_expression("2^3^2"), {}) == pytest.approx(512.0)
    assert evaluate(parse_expression("2-3-4"), {}) == pytest.approx(-5.0)
    assert evaluate(parse_expression("12/2/3"), {}) == pytest.approx(2.0)
    assert evaluate(parse_expression("1+2*3"), {}) == pytest.approx(7.0)


@pytest.mark.parametrize("text", [
    "4/(1+x^2+y^2)^2",
    "-x^2+3*(y-2)/z",
    "pow(x, 1.5)-sin(x)*cos(y)",
    "x^-2",
    "2^3^2",
    "-(x*y)",
    "a-b-c",
    "a-(b-c)",
    "x/(y*z)",
    "sqrt(exp(x)+1)",
])
def test_print_parse_roundtrip(text):
    ast = parse_expression(text)
    assert parse_expression(to_string(ast)) == ast


def test_expression_depth_bound():
    # a chain at the bound parses, evaluates, compares and prints; one more
    # level is a parse error at an offset, before any recursive walk
    ast = parse_expression("1" + "+x" * (MAX_DEPTH - 1))
    jet = evaluate(ast, {"x": Jet.variable(0, 0.5, 1, 2)})
    assert jet.value == pytest.approx(1.0 + 0.5 * (MAX_DEPTH - 1))
    assert parse_expression(to_string(ast)) == ast
    for text in ("1" + "+x" * MAX_DEPTH, "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH):
        with pytest.raises(ExpressionError, match="nests deeper") as err:
            parse_expression(text)
        assert err.value.position is not None


def test_jet_float_agreement():
    rng = np.random.default_rng(0)
    ast = parse_expression("exp(x*y)-sqrt(1+x^2)*cos(y)+y/(2+x)")
    for _ in range(10):
        px, py = rng.uniform(-0.8, 0.8, 2)
        jx = Jet.variable(0, px, 2, 3)
        jy = Jet.variable(1, py, 2, 3)
        jet_val = evaluate(ast, {"x": jx, "y": jy})
        float_val = evaluate(ast, {"x": px, "y": py})
        assert jet_val.value == pytest.approx(float_val, rel=1e-13)


def test_array_evaluation_matches_scalar():
    ast = parse_expression("4/(1+x^2+y^2)^2")
    xs = np.array([0.0, 0.3, -0.7])
    ys = np.array([0.1, -0.2, 0.4])
    arr = evaluate(ast, {"x": xs, "y": ys})
    for i in range(3):
        assert arr[i] == pytest.approx(evaluate(ast, {"x": xs[i], "y": ys[i]}))


def test_program_shares_equal_subexpressions_and_keeps_first_positions():
    a, b = parse_expression("1+exp(2*x)"), parse_expression("exp(2*x)/x")
    program = Program([a, b], ["x"])
    assert [program.nodes[i] for i in program.outputs] == [a, b]   # the same expressions
    # 1, 2, x, 2*x, exp(2*x), 1+exp(2*x), exp(2*x)/x: exp(2*x) is one
    # instruction, and so is x
    assert len(program.nodes) == 7
    exp_2x = [node for node in program.nodes if node == b.left]
    assert len(exp_2x) == 1 and exp_2x[0].pos == 2   # its first occurrence's position
    assert sum(node == Var("x") for node in program.nodes) == 1
    assert Program([a, a], ["x"]).outputs == [5, 5]
    # equal numbers are one instruction, but 0 and -0 stay apart
    assert Program([Num(0.0), Num(-0.0), Num(0.0)], []).outputs == [0, 1, 0]
    minus_x = Program([parse_expression("x"), parse_expression("-x")], ["x"])
    assert minus_x.outputs == [0, 1] and len(minus_x.nodes) == 2


_TERM = st.sampled_from(["x", "y", "q", "2", "0.5", "1e300", "0"])
_TEXT = st.recursive(
    _TERM,
    lambda inner: st.one_of(
        st.builds("({}){}({})".format, inner, st.sampled_from("+-*/^"), inner),
        st.builds("{}({})".format, st.sampled_from(["exp", "log", "sqrt", "-"]), inner),
        st.builds("pow({}, {})".format, inner, inner),
    ),
    max_leaves=6,
)


def _outcome(run):
    """A pass's values, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            return [v.coeffs if isinstance(v, Jet) else np.asarray(v) for v in run()]
    except (ExpressionError, DomainError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.lists(_TEXT, min_size=1, max_size=4), st.booleans())
def test_one_memoized_pass_matches_evaluating_each_expression(texts, on_jets):
    # one program pass over the interned expressions gives the recursive
    # reference's values on each expression alone, bit for bit, and the
    # same first error (message and position), over jets or node arrays; q
    # is an unknown identifier
    asts = [parse_expression(t) for t in texts]
    env = ({"x": Jet.variable(0, 0.3, 2, 3), "y": Jet.variable(1, -0.2, 2, 3)}
           if on_jets else {"x": np.array([0.3, 1.5]), "y": np.array([-0.2, 2.0])})
    plain = _outcome(lambda: reference_values(asts, env))
    shared = _outcome(lambda: program_values(asts, env))
    if isinstance(plain, tuple):
        assert shared == plain
    else:
        assert not isinstance(shared, tuple)
        for u, v in zip(plain, shared):
            assert np.array_equal(u, v, equal_nan=True)
            assert np.array_equal(np.signbit(u), np.signbit(v))


def test_shared_subexpression_errors_keep_their_own_positions(tmp_path):
    # q*x is unknown in the metric at offset 6 and in the density at offset 4;
    # every pass evaluates the metric first, so the metric's offset is named
    path = tmp_path / "shared.cfg"
    path.write_text("[space]\nn = 2\nm = 2\n\n[metric]\ng_11 = 1+exp(q*x)\n"
                    "g_22 = 1\n\n[density]\nf = exp(q*x)+2\n")
    spec = load_model_file(path)
    for evaluate_at in (spec.structure_at, spec.metric_at):
        with pytest.raises(ExpressionError, match=r"'q' \(at offset 6\)$"):
            evaluate_at([0.1, 0.2])
    # q*x is one instruction of the model's program, the metric's
    shared = [node for node in spec._program.nodes if node == parse_expression("q*x")]
    assert len(shared) == 1 and shared[0].pos == 7


# -- builtin models --------------------------------------------------------


def random_points(spec, rng, count):
    """Points in the box of half-width 0.8 around the model's default point,
    which lies inside the chart for every built-in model."""
    return spec.default_point + rng.uniform(-0.8, 0.8, size=(count, spec.n))


def test_unknown_model_name():
    with pytest.raises(ModelError):
        builtin_model("nonsense")


def test_qe_sphere_parameter_guards():
    with pytest.raises(ModelError):
        builtin_model("qe_sphere", 3, m=1.0, mu=1.0)
    with pytest.raises(ModelError):
        builtin_model("qe_sphere", 3, m=2.0, mu=-1.0)


def test_qe_sphere_constants():
    spec = builtin_model("qe_sphere", 3, 2, 1)
    assert spec.lam == pytest.approx(0.25)
    p = spec.structure_at([0.1, 0.2, 0.0])
    assert p.f[0] == pytest.approx(np.sqrt(0.5))
    lam, res = quasi_einstein_residual(
        weighted_invariants(p), p.g.matrix, 3, 2.0
    )
    assert lam == pytest.approx(0.25, abs=1e-11)
    assert res <= 1e-9


def test_qe_sphere_many_points():
    spec = builtin_model("qe_sphere", 3, 2, 1)
    rng = np.random.default_rng(4)
    for point in random_points(spec, rng, 20):
        p = spec.structure_at(point)
        _, res = quasi_einstein_residual(
            weighted_invariants(p), p.g.matrix, 3, 2.0
        )
        assert res <= 1e-9


def test_euclidean_invariants_vanish():
    spec = builtin_model("euclidean", 3)
    w = weighted_invariants(spec.structure_at([0.3, -0.4, 0.2]))
    assert abs(w.J) < 1e-12 and abs(w.r_phi) < 1e-12
    assert np.max(np.abs(w.ric_phi)) < 1e-12


def test_round_sphere_unweighted_curvature():
    spec = builtin_model("round_sphere_stereographic", 3)
    rng = np.random.default_rng(5)
    for point in random_points(spec, rng, 5):
        p = spec.structure_at(point)
        w = weighted_invariants(p)
        assert np.allclose(w.ric_phi, 2.0 * p.g.matrix, atol=1e-10)
    assert spec.lam == pytest.approx(0.5)


def test_hyperbolic_constants():
    spec = builtin_model("hyperbolic_upper_half", 3)
    p = spec.structure_at(spec.default_point)
    w = weighted_invariants(p)
    assert w.r_phi == pytest.approx(-6.0, abs=1e-11)
    assert spec.lam == pytest.approx(-0.5)


def test_random_points_box_around_default_point():
    for name in ("euclidean", "round_sphere_stereographic", "qe_sphere"):
        spec = builtin_model(name, 3)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        assert np.array_equal(random_points(spec, rng, 7),
                              twin.uniform(-0.8, 0.8, size=(7, 3)))
    spec = builtin_model("hyperbolic_upper_half", 3)
    pts = random_points(spec, np.random.default_rng(8), 200)
    assert np.all((pts[:, -1] > 0.2) & (pts[:, -1] < 1.8))
    assert pts[:, -1].min() < 0.3
    for point in list(pts[:: 20]) + [pts[np.argmin(pts[:, -1])]]:
        assert curvature(spec.metric_at(point)).scalar == pytest.approx(-6.0, abs=1e-11)


def test_builtin_models_evaluate_on_domain():
    rng = np.random.default_rng(6)
    for name in BUILTIN_NAMES:
        spec = builtin_model(name, 3, m=2.0 if name == "qe_sphere" else None,
                             mu=1.0 if name == "qe_sphere" else None)
        for point in random_points(spec, rng, 10):
            spec.structure_at(point)   # must not raise


def test_domain_predicate_rejects_points_off_the_domain():
    spec = builtin_model("hyperbolic_upper_half", 2, m=1.0)
    for point in ([0.0, -1.0], [0.4, 0.0], [-2.0, -1e-12]):
        for evaluate_at in (spec.metric_at, spec.structure_at):
            with pytest.raises(DomainError, match=r"\(model domain: points with "
                               r"y > 0\): the point lies outside the domain"):
                evaluate_at(point)
    spec.structure_at([-2.0, 1e-3])   # any y > 0 is inside
    # the domain is one model field, not a rule about the model's name
    mirror = dataclasses.replace(spec, name="lower_half", domain="points with y < 0",
                                 inside=lambda x: x[1] < 0.0)
    assert weighted_invariants(mirror.structure_at([0.0, -1.0])).J == pytest.approx(
        weighted_invariants(spec.structure_at([0.0, 1.0])).J, abs=1e-12)
    with pytest.raises(DomainError, match="lower_half"):
        mirror.metric_at([0.0, 1.0])


# -- ambient generators -------------------------------------------------------


def test_quasi_einstein_ambient_structure():
    spec = builtin_model("qe_sphere", 3, 2, 1)
    point = [0.1, 0.2, 0.0]
    a = spec.ambient_at(point, K=5)
    g0 = spec.metric_at(point, 0).matrix
    f0 = spec.structure_at(point, 0).f[0]
    lam = spec.lam
    assert np.allclose(a.gcoeffs[0], g0)
    assert np.allclose(a.gcoeffs[1], 2 * lam * g0)
    assert np.allclose(a.gcoeffs[2], lam**2 * g0)
    assert np.max(np.abs(a.gcoeffs[3:])) == 0.0
    assert a.fcoeffs[0] == pytest.approx(f0)
    assert a.fcoeffs[1] == pytest.approx(lam * f0)
    # first-order data carries (2P, (Y/m) f) for P = lam g, Y = m lam
    p = spec.structure_at(point)
    w = weighted_invariants(p)
    assert np.allclose(a.gcoeffs[1], 2 * w.P, atol=1e-10)
    assert a.fcoeffs[1] == pytest.approx(w.Y / 2.0 * f0, abs=1e-11)


def test_lambda_zero_gives_constant_expansion():
    spec = builtin_model("euclidean", 3, m=2.0)
    a = spec.ambient_at([0.0, 0.0, 0.0], K=4)
    assert np.allclose(volume_coefficients(a, 2.0).v, 0.0, atol=1e-14)


@pytest.mark.parametrize("name, n, m, K", [
    ("euclidean", 2, None, 1), ("qe_sphere", 2, 2.0, 2), ("qe_sphere", 4, 2.0, 3),
    ("qe_sphere", 3, 2.0, 5), ("qe_sphere", 4, 2.5, 5), ("qe_sphere", 4, 8.0, 5),
])
def test_default_ambient_order_stops_at_the_determinacy_order(name, n, m, K):
    # DEFAULT_AMBIENT_ORDER = 5, lowered to (n+m)/2 when n+m is an even integer
    spec = builtin_model(name, n, m=m)
    coeffs, _ = spec.volume_coefficients_at(spec.default_point)
    assert len(coeffs) == K


def test_non_finite_density_raises_domain_error():
    spec = dataclasses.replace(builtin_model("euclidean", 2, m=1.0),
                               f_expr=parse_expression("exp(x)"))
    with np.errstate(all="raise"):   # any warning left unsuppressed raises
        with pytest.raises(DomainError, match=r"density of model 'euclidean' "
                           r"is not finite at point \(1000, 0\)"):
            spec.structure_at([1000.0, 0.0])


def test_missing_lambda_errors():
    spec = builtin_model("round_sphere_stereographic", 3, m=2.0)
    assert spec.lam is None
    with pytest.raises(ModelError):
        spec.ambient_at([0.0, 0.0, 0.0], K=3)


def test_lcf_specializes_to_quasi_einstein():
    # at P = lam g, Y = m lam the candidate is (1 + lam rho)^2 g, (1 + lam rho) f
    rng = np.random.default_rng(7)
    g = np.eye(3) + 0.2 * _sym(rng, 3)
    lam, m, f = 0.3, 2.0, 1.1
    a = lcf_candidate_ambient(g, f, lam * g, m * lam, m, 4)
    assert np.allclose(a.gcoeffs, [g, 2 * lam * g, lam**2 * g, 0 * g, 0 * g], atol=1e-13)
    assert np.allclose(a.fcoeffs, [f, lam * f, 0, 0, 0], atol=1e-13)


def test_lcf_random_diagonal_oracle():
    rng = np.random.default_rng(8)
    g = np.eye(3)
    P = np.diag(rng.uniform(-0.5, 0.5, 3))
    Y, m = 0.4, 2.0
    a = lcf_candidate_ambient(g, 1.0, P, Y, m, 5)
    v = volume_coefficients(a, m)
    for k in range(1, 6):
        assert v[k] == pytest.approx(sigma_k_phi(Y, P, g, m, k), abs=1e-10)
    assert np.max(obstruction_tensors(a).sup_norms()) < 1e-12


def _sym(rng, n):
    a = rng.uniform(-1, 1, (n, n))
    return 0.5 * (a + a.T)


# -- model files ---------------------------------------------------------------


QE_MODEL_TEXT = """
[space]
n = 3
m = 2
mu = 1
coords = x, y, z

[metric]
g_11 = 4/(1+x^2+y^2+z^2)^2
g_22 = 4/(1+x^2+y^2+z^2)^2
g_33 = 4/(1+x^2+y^2+z^2)^2

[density]
f = 0.70710678118654752

[ambient]
lambda = 0.25
"""


def test_model_file_roundtrip(tmp_path):
    path = tmp_path / "qe.cfg"
    path.write_text(QE_MODEL_TEXT)
    spec = load_model_file(path)
    assert spec.n == 3 and spec.m == 2.0 and spec.mu == 1.0
    assert spec.lam == pytest.approx(0.25)
    p = spec.structure_at([0.1, 0.2, 0.0])
    w = weighted_invariants(p)
    assert w.J == pytest.approx(1.25, abs=1e-11)
    v = volume_coefficients(spec.ambient_at([0.1, 0.2, 0.0], 5), spec.m)
    assert v[1] == pytest.approx(1.25, abs=1e-12)


def test_model_file_lower_triangle_and_defaults(tmp_path):
    path = tmp_path / "offdiag.cfg"
    path.write_text(
        "[space]\nn = 2\nm = 2\nmu = 0\n\n"
        "[metric]\ng_11 = 2\ng_21 = 0.3\ng_22 = 1\n\n"
        "[density]\nf = 1.5\n"
    )
    spec = load_model_file(path)
    g = spec.metric_at([0.0, 0.0]).matrix
    assert g[0, 1] == pytest.approx(0.3)
    assert g[1, 0] == pytest.approx(0.3)


def test_model_file_missing_diagonal(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[space]\nn = 2\n\n[metric]\ng_11 = 1\n")
    with pytest.raises(ModelError):
        load_model_file(path)


def test_model_file_ambient_coefficients(tmp_path):
    rng = np.random.default_rng(9)
    g = np.eye(3) + 0.1 * _sym(rng, 3)
    a = lcf_candidate_ambient(g, 1.2, 0.2 * _sym(rng, 3), 0.5, 2.0, 4)
    coeff_path = tmp_path / "amb.txt"
    save_ambient_file(a, 2.0, 0.0, coeff_path)
    model_path = tmp_path / "model.cfg"
    model_path.write_text(
        "[space]\nn = 3\nm = 2\nmu = 0\n\n"
        "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n\n"
        "[density]\nf = 1.2\n\n"
        f"[ambient]\ncoefficients = {coeff_path}\n"
    )
    spec = load_model_file(model_path)
    loaded = spec.ambient_at([0.0, 0.0, 0.0], 4)
    assert np.allclose(loaded.gcoeffs, a.gcoeffs)


@pytest.mark.parametrize("name", ["euclidean", "qe_sphere"])
@pytest.mark.parametrize("params", [
    {"m": float("nan")}, {"m": float("inf")},
    {"mu": float("nan")}, {"mu": float("-inf")},
])
def test_builtin_model_rejects_non_finite_parameters(name, params):
    with pytest.raises(ModelError, match="finite"):
        builtin_model(name, 3, **params)


@pytest.mark.parametrize("line", ["m = nan", "m = inf", "mu = -inf", "mu = nan"])
def test_model_file_rejects_non_finite_parameters(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"[space]\nn = 2\n{line}\n\n[metric]\ng_11 = 1\ng_22 = 1\n")
    with pytest.raises(ModelError, match="finite"):
        load_model_file(path)


def test_model_file_rejects_non_finite_lambda(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "[space]\nn = 2\nm = 2\n\n[metric]\ng_11 = 1\ng_22 = 1\n\n"
        "[ambient]\nlambda = nan\n"
    )
    with pytest.raises(ModelError, match="finite"):
        load_model_file(path)


def _flat_spec(**changes):
    base = dict(name="flat", n=2, m=1.0, mu=0.0, coords=("x", "y"),
                g_exprs=[[Num(1.0), Num(0.0)], [Num(0.0), Num(1.0)]],
                f_expr=Num(1.0))
    return ModelSpec(**{**base, **changes})


@pytest.mark.parametrize("changes, message", [
    ({"m": float("nan")}, "parameter m must be finite, got nan"),
    ({"mu": float("inf")}, "parameter mu must be finite, got inf"),
    ({"lam": float("-inf")}, "parameter lambda must be finite, got -inf"),
    ({"m": -1.0}, "model 'flat' needs a dimensional parameter m >= 0, got m = -1"),
    ({"n": 0}, "model 'flat' needs a dimension n in 1..4, got n = 0"),
    ({"n": 5}, "model 'flat' needs a dimension n in 1..4, got n = 5"),
    ({"coords": ("x",)}, r"model 'flat' needs 2 coordinate names, got 1: \('x',\)"),
])
def test_model_spec_checks_its_parameters_once(changes, message):
    _flat_spec()   # the base is accepted
    with pytest.raises(ModelError, match=f"^{message}$"):
        _flat_spec(**changes)


def test_model_file_and_builtin_parameter_errors_come_from_model_spec(tmp_path):
    path = tmp_path / "five.cfg"
    path.write_text("[space]\nn = 5\ncoords = a, b, c, d, e\n\n[metric]\n"
                    + "".join(f"g_{i}{i} = 1\n" for i in range(1, 6)))
    with pytest.raises(ModelError, match=f"model '{path}' needs a dimension n in 1..4"):
        load_model_file(path)
    path.write_text("[space]\nn = 3\ncoords = x, y\n\n[metric]\n"
                    "g_11 = 1\ng_22 = 1\ng_33 = 1\n")
    with pytest.raises(ModelError, match="needs 3 coordinate names, got 2"):
        load_model_file(path)
    # a huge n stops at the first missing diagonal, before any n x n table
    path.write_text("[space]\nn = 1000000000\n\n[metric]\ng_11 = 1\n")
    with pytest.raises(ModelError, match="missing diagonal metric component g_22"):
        load_model_file(path)
    # built-ins name their coordinates x, y, z, w
    for n in (1, 5):
        with pytest.raises(ModelError, match=f"built-in models support 2 <= n <= 4, "
                           f"got n = {n}"):
            builtin_model("qe_sphere", n)


def _pointwise_methods(spec):
    return (spec.metric_at, spec.structure_at, spec.invariants_at, spec.ambient_at,
            spec.volume_coefficients_at)


def test_pointwise_methods_take_one_point_only():
    # node arrays are for grids; a pointwise method rejects them
    spec = builtin_model("qe_sphere", 3, 2.0, 1.0)
    for bad in (np.zeros((4, 3)), 0.5, [0.0, 0.0]):
        for evaluate_at in _pointwise_methods(spec):
            with pytest.raises(ModelError, match="needs a point with 3 coordinates"):
                evaluate_at(bad)


def _coefficient_file_model(tmp_path):
    a = lcf_candidate_ambient(np.eye(3), 1.0, 0.1 * np.eye(3), 0.2, 2.0, 3)
    coeff_path = tmp_path / "amb.txt"
    save_ambient_file(a, 2.0, 0.0, coeff_path)
    model_path = tmp_path / "model.cfg"
    model_path.write_text("[space]\nn = 3\nm = 2\nmu = 0\n\n"
                          "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n\n"
                          f"[ambient]\ncoefficients = {coeff_path}\n")
    return load_model_file(model_path)


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                 [0.0, 0.5, -math.inf]])
@pytest.mark.parametrize("name", ["euclidean", "round_sphere_stereographic",
                                  "hyperbolic_upper_half", "coefficient file"])
def test_non_finite_point_is_one_model_error(tmp_path, name, bad):
    # checked before anything is evaluated: euclidean read J = 0 at nan, the
    # sphere blamed its metric, and a coefficient file compared the point
    spec = (_coefficient_file_model(tmp_path) if name == "coefficient file"
            else builtin_model(name, 3))
    message = (f"model {spec.name!r} needs a finite point, got a non-finite "
               f"coordinate in ({', '.join(f'{c:g}' for c in bad)})")
    for evaluate_at in _pointwise_methods(spec):
        with pytest.raises(ModelError, match=re.escape(message)):
            evaluate_at(bad)


def test_exponent_that_varies_over_nodes_is_an_expression_error():
    nodes = {"x": np.array([0.5, 2.0]), "y": np.array([1.0, 1.0])}
    with pytest.raises(ExpressionError, match=r"constant expression \(at offset 1\)"):
        evaluate(parse_expression("x^x"), nodes)
    with pytest.raises(ExpressionError, match=r"constant expression \(at offset 0\)"):
        evaluate(parse_expression("pow(2, x)"), nodes)
    # an exponent that reads an array varies, even when its values are equal
    with pytest.raises(ExpressionError, match=r"constant expression \(at offset 1\)"):
        evaluate(parse_expression("x^(2*y)"), nodes)


@pytest.mark.parametrize("k", [np.float64(2.0), np.int64(2), np.float32(2.0), 2, 2.0])
def test_exponent_bound_to_a_real_number_is_a_constant(k):
    nodes = np.array([0.5, 2.0])
    assert np.array_equal(evaluate(parse_expression("x^k"), {"x": nodes, "k": k}),
                          [0.25, 4.0])
    # the exponent is taken as a float, whatever the binding's type
    value = evaluate(parse_expression("x^(k/4)"), {"x": 2.0, "k": k})
    assert float(value) == math.sqrt(2.0)
    x = Jet.variable(0, 0.5, 1, 3)
    value = evaluate(parse_expression("pow(x, k/4)"), {"x": x, "k": k})
    assert np.array_equal(value.coeffs, x.apply("pow", 0.5).coeffs)


@pytest.mark.parametrize("g_11, offset", [("(1+x^2)^(1+1e-14*y)", 7), ("x^(x-x+2)", 1)])
def test_exponent_that_varies_raises_when_the_model_is_loaded(tmp_path, g_11, offset):
    # the exponents vary with the coordinates, however little or however
    # they cancel: a model file that names one is rejected as it is read
    path = tmp_path / "exponent.cfg"
    path.write_text(f"[space]\nn = 2\nm = 1\n\n[metric]\ng_11 = {g_11}\ng_22 = 1\n")
    with pytest.raises(ExpressionError, match=rf"^exponent must be a constant "
                                              rf"expression \(at offset {offset}\)$"):
        load_model_file(path)
