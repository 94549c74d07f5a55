"""Small analytic expression language for metric and density components.

Grammar: numbers, coordinate identifiers, ``+ - * / ^``, unary minus,
and calls to ``sin cos exp log sqrt pow``.  ``^`` binds tightest and is
right-associative; unary minus sits between ``^`` and ``* /``; the binary
arithmetic operators are left-associative.  Whitespace is insignificant.
Errors carry the byte offset of the offending token.  An expression may
nest at most ``MAX_DEPTH`` levels (parentheses, operands and call
arguments), so the recursive parser, evaluator and printer stay within
Python's recursion limit.

Expressions evaluate over floats or jets interchangeably; on jets the
order-0 coefficient of the result equals the float evaluation.
``intern`` hash-conses ASTs, so that equal subtrees are one node object,
and ``evaluate`` with a ``memo`` evaluates each node object once per pass.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ExpressionError
from .jets import Jet

FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "pow": 2}
MAX_DEPTH = 200

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class Token(NamedTuple):
    kind: str   # number | ident | op | end
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionError(
                f"unexpected character {text[bad_at]!r}", position=bad_at
            )
        kind = m.lastgroup   # the one alternative that matched
        tokens.append(Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    operand: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int = field(default=0, compare=False)


Node = Num | Var | Unary | Binary | Call

_BINARY_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.nesting = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                position=tok.pos,
            )
        self.advance()

    def parse(self) -> Node:
        node = self.expression(0)
        tok = self.current
        if tok.kind != "end":
            raise ExpressionError(
                f"unexpected trailing token {tok.text!r}", position=tok.pos
            )
        return node

    def expression(self, min_bp: int) -> Node:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise _too_deep(self.current.pos)
        left = self.prefix()
        while True:
            tok = self.current
            if tok.kind != "op" or tok.text not in _BINARY_PRECEDENCE:
                break
            bp = _BINARY_PRECEDENCE[tok.text]
            if bp < min_bp:
                break
            self.advance()
            # right-associative ^ re-enters at its own level, others above it
            right = self.expression(bp if tok.text == "^" else bp + 1)
            left = Binary(tok.text, left, right, pos=tok.pos)
        self.nesting -= 1
        return left

    def prefix(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            return Num(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            if self.current.kind == "op" and self.current.text == "(":
                return self.call(tok)
            return Var(tok.text, pos=tok.pos)
        if tok.kind == "op":
            if tok.text == "-":
                return Unary(self.expression(_UNARY_PRECEDENCE), pos=tok.pos)
            if tok.text == "(":
                inner = self.expression(0)
                self.expect_op(")")
                return inner
        raise ExpressionError(
            f"unexpected token {tok.text or 'end of input'!r}", position=tok.pos
        )

    def call(self, name_tok: Token) -> Node:
        name = name_tok.text
        if name not in FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}", position=name_tok.pos)
        self.expect_op("(")
        args = [self.expression(0)]
        while self.current.kind == "op" and self.current.text == ",":
            self.advance()
            args.append(self.expression(0))
        self.expect_op(")")
        if len(args) != FUNCTIONS[name]:
            raise ExpressionError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}",
                position=name_tok.pos,
            )
        return Call(name, tuple(args), pos=name_tok.pos)


def _too_deep(pos: int) -> ExpressionError:
    return ExpressionError(f"expression nests deeper than {MAX_DEPTH} levels",
                           position=pos)


def _children(node: Node) -> tuple:
    if isinstance(node, Unary):
        return (node.operand,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def parse_expression(text: str) -> Node:
    """Parse ``text``; an AST deeper than ``MAX_DEPTH`` (a long chain of
    left-associative operators) is rejected like a syntax error."""
    parser = _Parser(text)
    root = parser.parse()
    # each node has a token of its own, so a path of nodes from the root is
    # no longer than the token list (its last token marks the end)
    stack = [(root, 1)] if len(parser.tokens) - 1 > MAX_DEPTH else []
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(node.pos)
        stack.extend((child, depth + 1) for child in _children(node))
    return root


# -- evaluation ---------------------------------------------------------------


def _constant_exponent(value, pos: int) -> float:
    """The exponent as a float: a number, a jet with no higher terms, or
    node values that are all one number."""
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
    """A scalar argument as itself; an array by its shape and first
    offending entry (``bad`` marks the offending ones), never in full."""
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
        return base.apply("pow", alpha)  # jets check their own domain
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
    except ValueError:   # sin(inf), cos(inf)
        raise DomainError(f"{name}({x}) outside the function domain")


def evaluate(node: Node, env: dict, memo: dict | None = None):
    """Evaluate an AST over an environment of floats or jets.

    ``memo`` (node id -> value), when given, serves every call of one pass
    over one environment: each node object is then evaluated once, so an
    AST from ``intern`` evaluates each distinct subexpression once.  It must
    not outlive the pass (ids are reused once nodes are freed)."""
    if memo is not None and id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Binary):
        a = evaluate(node.left, env, memo)
        b = evaluate(node.right, env, memo)
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
            value = _power(evaluate(node.args[0], env, memo),
                           evaluate(node.args[1], env, memo), node.pos)
        else:
            arg = evaluate(node.args[0], env, memo)
            value = (arg.apply(node.name) if isinstance(arg, Jet)
                     else _call_scalar(node.name, arg, node.pos))
    elif isinstance(node, Unary):
        value = -evaluate(node.operand, env, memo)
    else:
        raise ExpressionError(f"cannot evaluate node {node!r}")
    if memo is not None:
        memo[id(node)] = value
    return value


def intern(nodes) -> list:
    """The ASTs ``nodes`` hash-consed: equal subtrees (positions aside)
    become one node object, so ``evaluate`` with a memo evaluates each once.

    The node kept for a subtree is its first occurrence in evaluation order
    (the list in order, children left to right), the one an evaluation error
    in it is first raised at, so error positions stay those of the input.
    Numbers are equal by value and sign (0 and -0 stay apart)."""
    table, done = {}, {}   # key -> node kept; id(input node) -> node kept

    def canonical(node):
        kept = done.get(id(node))
        if kept is not None:   # an object met before (one AST in two slots)
            return kept
        kind, new = type(node), node
        if kind is Num:   # the sign tells 0 from -0
            key = (kind, node.value, math.copysign(1.0, node.value))
        elif kind is Var:
            key = (kind, node.name)
        elif kind is Binary:
            left, right = canonical(node.left), canonical(node.right)
            key = (kind, node.op, id(left), id(right))
            if key not in table and (left is not node.left or right is not node.right):
                new = Binary(node.op, left, right, pos=node.pos)
        elif kind is Call:
            args = tuple(map(canonical, node.args))
            key = (kind, node.name, *map(id, args))
            if key not in table and any(map(operator.is_not, args, node.args)):
                new = Call(node.name, args, pos=node.pos)
        elif kind is Unary:
            operand = canonical(node.operand)
            key = (kind, id(operand))
            if key not in table and operand is not node.operand:
                new = Unary(operand, pos=node.pos)
        else:   # not an AST node: left to ``evaluate`` to reject
            key = (None, id(node))
        kept = done[id(node)] = table.setdefault(key, new)
        return kept

    return [canonical(node) for node in nodes]


def has_vars(node: Node) -> bool:
    """Whether the AST references any identifier (is not a constant)."""
    return isinstance(node, Var) or any(has_vars(c) for c in _children(node))


# -- printing ------------------------------------------------------------------


def to_string(node: Node, parent_bp: int = 0) -> str:
    """Render an AST with minimal parentheses; reparsing gives an equal AST."""
    if isinstance(node, Num):
        return f"{node.value:.17g}"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = to_string(node.operand, _UNARY_PRECEDENCE)
        text = f"-{inner}"
        return f"({text})" if parent_bp > _UNARY_PRECEDENCE else text
    if isinstance(node, Binary):
        bp = _BINARY_PRECEDENCE[node.op]
        left = to_string(node.left, bp if node.op != "^" else bp + 1)
        right = to_string(node.right, bp + 1 if node.op != "^" else bp)
        text = f"{left}{node.op}{right}"
        return f"({text})" if bp < parent_bp else text
    if isinstance(node, Call):
        args = ", ".join(to_string(a, 0) for a in node.args)
        return f"{node.name}({args})"
    raise ExpressionError(f"cannot print node {node!r}")
