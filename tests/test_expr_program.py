"""The compiled expression program against the recursive reference
evaluator (``expr_reference``): the same values, bit for bit and with the
sign of every zero, on the built-in models, the benchmark's deformed
spheres and sphere-grid nodes, and the same error type and message on the
failing expressions of the model and command-line tests."""

import sys
from pathlib import Path

import numpy as np
import pytest

from expr_reference import program_values, reference_evaluate
from wrvc.errors import DomainError, ExpressionError
from wrvc.expr import Program, intern, parse_expression
from wrvc.jets import Jet, n_coeffs
from wrvc.models import BUILTIN_NAMES, builtin_model
from wrvc.variational import QuadratureGrid

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def _identical(u, v) -> bool:
    u, v = np.asarray(u), np.asarray(v)
    return (u.shape == v.shape and np.array_equal(u, v, equal_nan=True)
            and np.array_equal(np.signbit(u), np.signbit(v)))


def _reference(model, env, width):
    """The model's (n, n, width) metric and (width,) density by the
    reference, one memo over the interned components, as the models
    evaluated them before they were compiled."""
    *metric, f = intern([node for row in model.g_exprs for node in row] + [model.f_expr])
    memo = {}

    def row(node):
        value = reference_evaluate(node, env, memo)
        if isinstance(value, Jet):
            return value.coeffs
        if isinstance(next(iter(env.values())), Jet):
            return np.concatenate([[float(value)], np.zeros(width - 1)])
        return np.broadcast_to(np.asarray(value, dtype=float), width)

    rows = [row(node) for node in metric]
    return np.array(rows).reshape(model.n, model.n, width), row(f)


def _assert_jets_match(model, point, order):
    G, f = model._evaluate(point, order, accept_metric=lambda G, _: G)
    env = {name: Jet.variable(i, point[i], model.n, order)
           for i, name in enumerate(model.coords)}
    G_ref, f_ref = _reference(model, env, n_coeffs(model.n, order))
    assert _identical(G, G_ref) and _identical(f, f_ref)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_builtin_model_jets_match_the_reference(name, n):
    model = builtin_model(name, n)
    for point in (model.default_point, model.default_point + np.linspace(0.1, 0.25, n)):
        for order in range(7):
            _assert_jets_match(model, point, order)


def test_benchmark_deformed_spheres_match_the_reference():
    pointwise = workloads.Pointwise(1)
    for model, point, _ in pointwise.inputs:
        _assert_jets_match(model, point, pointwise.ORDER)


@pytest.mark.parametrize("model", [
    builtin_model("qe_sphere", 3), builtin_model("round_sphere_stereographic", 3),
    builtin_model("euclidean", 3, m=2.0), workloads.Pointwise(1).inputs[0][0],
], ids=["qe_sphere", "round_sphere", "euclidean", "deformed"])
def test_grid_node_values_match_the_reference(model):
    # the model's program on both charts' nodes, without the model's
    # finiteness check: the deformed density overflows at chart 2's far nodes
    program = model._program
    outputs = [program.nodes[i] for i in program.outputs]
    X = QuadratureGrid(3, 20).points
    for nodes in (X, X / (X * X).sum(axis=1)[:, None]):   # chart 1, chart 2
        out = np.empty((len(outputs), len(nodes)))
        env, memo = dict(zip(model.coords, nodes.T)), {}
        with np.errstate(all="ignore"):
            program.run(program.registers(nodes.T), 0, len(outputs), None, out)
            reference = [np.broadcast_to(reference_evaluate(node, env, memo), len(nodes))
                         for node in outputs]
        assert all(map(_identical, out, reference))


# every expression that fails in tests/test_models.py and tests/test_cli.py
# (q is an unknown identifier; x^x and pow(2, x) fail where x varies)
FAILING = ["log(0.0)", "1 + q", "x^x", "pow(2, x)", "1+exp(q*x)", "exp(q*x)+2",
           "1/x^2", "exp(1000)", "10^400", "2+sin(1e400)", "x^(1e400-1e400)"]


def _outcome(run):
    try:
        with np.errstate(all="ignore"):
            return [v.coeffs if isinstance(v, Jet) else np.asarray(v) for v in run()]
    except (ExpressionError, DomainError, OverflowError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_failing_expressions_raise_as_the_reference_does():
    envs = [{"x": x, "y": y} for x, y in ((0.0, 0.0), (0.5, 0.0))]
    envs += [{"x": Jet.variable(0, env["x"], 2, 2), "y": Jet.variable(1, env["y"], 2, 2)}
             for env in envs]
    envs.append({"x": np.array([0.5, 2.0, 0.0]), "y": np.array([1.0, 1.0, 0.0])})
    for text in FAILING:
        ast = parse_expression(text)
        outcomes = [(_outcome(lambda: program_values([ast], env)),
                     _outcome(lambda: [reference_evaluate(ast, env)])) for env in envs]
        assert any(isinstance(reference, tuple) for _, reference in outcomes), text
        for program, reference in outcomes:
            if isinstance(reference, tuple):
                assert program == reference, text
            else:
                assert not isinstance(program, tuple), text
                assert all(map(_identical, program, reference)), text


def test_a_prefix_of_the_outputs_runs_a_prefix_of_the_program():
    # as metric_at runs the metric only: log(0), a constant that raises,
    # stays an instruction of the second output's part, raised in its place
    program = Program(intern([parse_expression("x*2^3"), parse_expression("x+log(0)")]),
                      ["x"])
    assert program.ends == [0, 5, 8]
    regs = program.registers([0.5])
    program.run(regs, 0, 1)
    assert regs[program.outputs[0]] == 4.0
    with pytest.raises(DomainError, match=r"^log\(0.0\) outside the function domain$"):
        program.run(regs, 1, 2)
