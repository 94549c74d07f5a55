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
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Token:
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
        if m.group("number") is not None:
            tokens.append(Token("number", m.group("number"), m.start("number")))
        elif m.group("ident") is not None:
            tokens.append(Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(Token("op", m.group("op"), m.start("op")))
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
    root = _Parser(text).parse()
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(node.pos)
        stack.extend((child, depth + 1) for child in _children(node))
    return root


# -- evaluation ---------------------------------------------------------------


def _constant_exponent(value, pos: int) -> float:
    if isinstance(value, Jet):
        scale = max(1.0, abs(value.value))
        if np.max(np.abs(value.coeffs[1:]), initial=0.0) > 1e-12 * scale:
            raise ExpressionError(
                "exponent must be a constant expression", position=pos
            )
        return value.value
    return float(value)


def _power(base, exponent, pos: int):
    alpha = _constant_exponent(exponent, pos)
    if abs(alpha - round(alpha)) < 1e-12:
        k = int(round(alpha))
        if isinstance(base, Jet):
            return base**k
        if k < 0 and np.any(np.asarray(base) == 0.0):
            raise ExpressionError("zero raised to a negative power", position=pos)
        return base**k
    if isinstance(base, Jet):
        return base.apply("pow", alpha)  # jets check their own domain
    if np.any(np.asarray(base) <= 0.0):
        raise DomainError(f"pow({alpha}) needs a positive base, got {base}")
    return base**alpha


def _call_scalar(name: str, x, pos: int):
    if name == "log" and np.any(np.asarray(x) <= 0.0):
        raise DomainError(f"{name}({x}) outside the function domain")
    if name == "sqrt" and np.any(np.asarray(x) < 0.0):
        raise DomainError(f"{name}({x}) outside the function domain")
    if isinstance(x, np.ndarray):
        return getattr(np, name)(x)
    return getattr(math, name)(x)


def evaluate(node: Node, env: dict):
    """Evaluate an AST over an environment of floats or jets."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExpressionError(
                f"unknown identifier {node.name!r}", position=node.pos
            )
    if isinstance(node, Unary):
        return -evaluate(node.operand, env)
    if isinstance(node, Binary):
        if node.op == "^":
            return _power(
                evaluate(node.left, env), evaluate(node.right, env), node.pos
            )
        a = evaluate(node.left, env)
        b = evaluate(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if isinstance(b, Jet):
            return a * b.reciprocal()
        if np.any(np.asarray(b) == 0.0):
            raise DomainError("division by zero")
        return a / b
    if isinstance(node, Call):
        if node.name == "pow":
            return _power(
                evaluate(node.args[0], env), evaluate(node.args[1], env), node.pos
            )
        arg = evaluate(node.args[0], env)
        if isinstance(arg, Jet):
            return arg.apply(node.name)
        return _call_scalar(node.name, arg, node.pos)
    raise ExpressionError(f"cannot evaluate node {node!r}")


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
