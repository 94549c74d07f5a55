"""The recursive expression evaluator, kept as the reference that
``wrvc.expr.Program`` must match bit for bit.

``reference_evaluate`` walks an AST over an environment of floats, node
arrays or ``Jet`` objects, by ``Jet``'s operators, with one value per node
object in ``memo`` when one is given (a pass over ``intern``-ed ASTs then
evaluates each distinct subexpression once).  It shares no compiled
program, operation table or exponent check with the code under test.
``program_values`` runs that code, one pass the way a model runs it.
"""

import math

import numpy as np

from wrvc.errors import DomainError, ExpressionError
from wrvc.expr import Binary, Call, Num, Program, Unary, Var, intern
from wrvc.jets import Jet


def _constant_exponent(value, pos: int) -> float:
    if isinstance(value, (float, int)):
        return float(value)
    if isinstance(value, Jet):
        scale = max(1.0, abs(value.value))
        varies = np.max(np.abs(value.coeffs[1:]), initial=0.0) > 1e-12 * scale
        value = value.value
    else:
        value = np.asarray(value, dtype=float)
        first = value.flat[0]
        varies = not np.array_equal(value, np.full_like(value, first), equal_nan=True)
        value = float(first)
    if varies:
        raise ExpressionError("exponent must be a constant expression", position=pos)
    return value


def _shown(x, bad) -> str:
    if np.ndim(x) == 0:
        return f"{x}"
    first = float(np.asarray(x)[bad].flat[0])
    return f"an array of shape {np.shape(x)}, first offending entry {first}"


def _power(base, exponent, pos: int):
    alpha = _constant_exponent(exponent, pos)
    if math.isfinite(alpha) and abs(alpha - round(alpha)) < 1e-12:
        k = int(round(alpha))
        if isinstance(base, Jet):
            return base**k
        if k < 0 and np.any(np.asarray(base) == 0.0):
            raise ExpressionError("zero raised to a negative power", position=pos)
        return base**k
    if isinstance(base, Jet):
        return base.apply("pow", alpha)
    bad = np.asarray(base) <= 0.0
    if bad.any():
        raise DomainError(f"pow({alpha}) needs a positive base, got {_shown(base, bad)}")
    return base**alpha


def _call_scalar(name: str, x, pos: int):
    if name in ("log", "sqrt"):
        bad = np.asarray(x) <= 0.0 if name == "log" else np.asarray(x) < 0.0
        if bad.any():
            raise DomainError(f"{name}({_shown(x, bad)}) outside the function domain")
    if isinstance(x, np.ndarray):
        return getattr(np, name)(x)
    try:
        return getattr(math, name)(x)
    except ValueError:
        raise DomainError(f"{name}({x}) outside the function domain")


def reference_evaluate(node, env: dict, memo: dict | None = None):
    """Evaluate an AST over floats, node arrays or jets, recursively."""
    if memo is not None and id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Binary):
        a = reference_evaluate(node.left, env, memo)
        b = reference_evaluate(node.right, env, memo)
        op = node.op
        if op == "+":
            value = a + b
        elif op == "-":
            value = a - b
        elif op == "*":
            value = a * b
        elif op == "^":
            value = _power(a, b, node.pos)
        elif isinstance(b, Jet):
            value = a / b
        else:
            bad = np.asarray(b) == 0.0
            if bad.any():
                raise DomainError("division by zero" if bad.ndim == 0 else
                                  f"division by zero: the divisor is {_shown(b, bad)}")
            value = a / b
    elif isinstance(node, Num):
        value = node.value
    elif isinstance(node, Var):
        try:
            value = env[node.name]
        except KeyError:
            raise ExpressionError(
                f"unknown identifier {node.name!r}", position=node.pos
            )
    elif isinstance(node, Call):
        if node.name == "pow":
            value = _power(reference_evaluate(node.args[0], env, memo),
                           reference_evaluate(node.args[1], env, memo), node.pos)
        else:
            arg = reference_evaluate(node.args[0], env, memo)
            value = (arg.apply(node.name) if isinstance(arg, Jet)
                     else _call_scalar(node.name, arg, node.pos))
    elif isinstance(node, Unary):
        value = -reference_evaluate(node.operand, env, memo)
    else:
        raise ExpressionError(f"cannot evaluate node {node!r}")
    if memo is not None:
        memo[id(node)] = value
    return value


def program_values(asts, env: dict) -> list:
    """The values of ``asts`` from one pass of one ``Program`` over them,
    interned: jets (of one dimension and order) in and out as coefficient
    arrays, a value that does not vary with them as a float."""
    jets = [name for name, value in env.items() if isinstance(value, Jet)]
    jet = (env[jets[0]].dim, env[jets[0]].order) if jets else None
    program = Program(intern(asts), list(env), jets)
    regs = program.registers([value.coeffs if isinstance(value, Jet) else value
                              for value in env.values()])
    program.run(regs, 0, len(asts), jet)
    return [regs[i] for i in program.outputs]
