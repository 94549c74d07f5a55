"""The recursive expression evaluator, kept as the reference that
``wrvc.expr.Program`` must match bit for bit.

``reference_evaluate`` walks an AST over an environment of floats, node
arrays or ``Jet`` objects, by ``Jet``'s operators, with one value per
structure in ``memo`` when one is given (equal subtrees, numbers equal by
value and sign, then evaluate once).  ``reference_check`` rejects, in
post-order, the first power whose exponent names a jet or an array, by
the syntax alone; ``reference_values`` checks a list of ASTs so, then
evaluates each on its own.  It shares no compiled program, operation
table, memo or exponent check with the code under test.
``program_values`` runs that code, one pass the way a model runs it.
"""

import math

import numpy as np

from wrvc.errors import DomainError, ExpressionError
from wrvc.expr import Binary, Call, Num, Program, Unary, Var
from wrvc.jets import Jet


def _varying(env: dict) -> set:
    return {name for name, value in env.items() if isinstance(value, (Jet, np.ndarray))}


def reference_check(node, varying: set) -> bool:
    """Whether the AST names a varying identifier; raises the error of the
    first power, children first, whose exponent does."""
    if isinstance(node, Var):
        return node.name in varying
    if isinstance(node, Binary):
        left = reference_check(node.left, varying)
        right = reference_check(node.right, varying)
        if node.op == "^" and right:
            raise ExpressionError("exponent must be a constant expression",
                                  position=node.pos)
        return left or right
    if isinstance(node, Call):
        names = [reference_check(arg, varying) for arg in node.args]
        if node.name == "pow" and names[1]:
            raise ExpressionError("exponent must be a constant expression",
                                  position=node.pos)
        return any(names)
    if isinstance(node, Unary):
        return reference_check(node.operand, varying)
    return False


def _shown(x, bad) -> str:
    if np.ndim(x) == 0:
        return f"{x}"
    first = float(np.asarray(x)[bad].flat[0])
    return f"an array of shape {np.shape(x)}, first offending entry {first}"


def _power(base, alpha, pos: int):
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


def _structure(node):
    """A key equal for equal subtrees, positions aside; numbers by value
    and sign, so 0 and -0 differ."""
    if isinstance(node, Num):
        return ("Num", node.value, math.copysign(1.0, node.value))
    if isinstance(node, Var):
        return ("Var", node.name)
    if isinstance(node, Unary):
        return ("Unary", _structure(node.operand))
    if isinstance(node, Binary):
        return ("Binary", node.op, _structure(node.left), _structure(node.right))
    if isinstance(node, Call):
        return ("Call", node.name, *map(_structure, node.args))
    return ("other", id(node))


def reference_evaluate(node, env: dict, memo: dict | None = None):
    """Evaluate an AST over floats, node arrays or jets, recursively; its
    exponents must not vary (``reference_check``)."""
    if memo is not None:
        key = _structure(node)
        if key in memo:
            return memo[key]
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
        memo[key] = value
    return value


def reference_values(asts, env: dict) -> list:
    """The values of ``asts``, each evaluated on its own, after every
    exponent of every AST is checked, as compiling them checks it."""
    for node in asts:
        reference_check(node, _varying(env))
    return [reference_evaluate(node, env) for node in asts]


def program_values(asts, env: dict) -> list:
    """The values of ``asts`` from one pass of one ``Program`` over them:
    jets (of one dimension and order) in and out as coefficient arrays, a
    value that does not vary with them as a float; names bound to jets or
    arrays vary."""
    jets = [name for name, value in env.items() if isinstance(value, Jet)]
    jet = (env[jets[0]].dim, env[jets[0]].order) if jets else None
    program = Program(asts, list(env), _varying(env))
    regs = program.registers([value.coeffs if isinstance(value, Jet) else value
                              for value in env.values()])
    program.run(regs, 0, len(asts), jet)
    return [regs[i] for i in program.outputs]
