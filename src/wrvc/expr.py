"""Small analytic expression language for metric and density components.

Grammar: numbers, coordinate identifiers, ``+ - * / ^``, unary minus,
and calls to ``sin cos exp log sqrt pow``.  ``^`` binds tightest and is
right-associative; unary minus sits between ``^`` and ``* /``; the binary
arithmetic operators are left-associative.  Whitespace is insignificant.
Errors carry the byte offset of the offending token.  An expression may
nest at most ``MAX_DEPTH`` levels (parentheses, operands and call
arguments), so the recursive parser, compiler and printer stay within
Python's recursion limit.

Expressions evaluate over floats, node arrays or jets interchangeably; on
jets the order-0 coefficient of the result equals the float evaluation.
``intern`` hash-conses ASTs, so that equal subtrees are one node object,
and ``Program`` compiles ASTs into one straight-line program, one
instruction per node object, run over coefficient arrays or node arrays;
``evaluate`` compiles and runs one AST.
"""

from __future__ import annotations

import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError, ExpressionError
from .jets import (
    Jet,
    compose_rows,
    mul_coeffs,
    n_coeffs,
    power_coeffs,
    reciprocal_coeffs,
    shifted_coeffs,
)

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
#
# ASTs compile into one straight-line program (``Program``): one instruction
# per node object, in post-order (children left to right), so an AST from
# ``intern`` runs each distinct subexpression once, and a pass raises its
# first error where a depth-first walk would.  An operand either varies (a
# jet as its coefficient array, or node values) or is a constant float, and
# each instruction picks its operation for those kinds when it is compiled.


def _exponent(value, pos: int) -> float:
    """The exponent as a float: a number, or node values that are all one
    number."""
    if isinstance(value, (float, int)):
        return float(value)
    value = np.asarray(value, dtype=float)
    first = value.flat[0]
    if not np.array_equal(value, np.full_like(value, first), equal_nan=True):
        raise ExpressionError("exponent must be a constant expression", position=pos)
    return float(first)


def _jet_exponent(coeffs: np.ndarray, pos: int) -> float:
    """The exponent from the coefficients of a jet with no higher terms."""
    value = float(coeffs[0])
    if np.max(np.abs(coeffs[1:]), initial=0.0) > 1e-12 * max(1.0, abs(value)):
        raise ExpressionError("exponent must be a constant expression", position=pos)
    return value


def _integer(alpha: float) -> int | None:
    """alpha as an int when it is one to 1e-12, else None."""
    if math.isfinite(alpha) and abs(alpha - round(alpha)) < 1e-12:
        return int(round(alpha))
    return None


def _shown(x, bad) -> str:
    """A scalar argument as itself; an array by its shape and first
    offending entry (``bad`` marks the offending ones), never in full."""
    if np.ndim(x) == 0:
        return f"{x}"
    first = float(np.asarray(x)[bad].flat[0])
    return f"an array of shape {np.shape(x)}, first offending entry {first}"


def _scalar_power(base, alpha: float, pos: int):
    k = _integer(alpha)
    if k is not None:
        if k < 0 and np.any(np.asarray(base) == 0.0):
            raise ExpressionError("zero raised to a negative power", position=pos)
        return base**k
    bad = np.asarray(base) <= 0.0
    if bad.any():
        raise DomainError(f"pow({alpha}) needs a positive base, got {_shown(base, bad)}")
    return base**alpha


def _jet_power(a: np.ndarray, alpha: float, jet) -> np.ndarray:
    k = _integer(alpha)
    if k is not None:
        return power_coeffs(a, k, *jet)
    return compose_rows("pow", a, *jet, alpha)   # jets check their own domain


def _divide(a, b):
    bad = np.asarray(b) == 0.0
    if bad.any():
        raise DomainError("division by zero" if bad.ndim == 0 else
                          f"division by zero: the divisor is {_shown(b, bad)}")
    return a / b


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


def _unknown(a, b, node, jet):
    if isinstance(node, Var):
        raise ExpressionError(f"unknown identifier {node.name!r}", position=node.pos)
    raise ExpressionError(f"cannot evaluate node {node!r}")


# Each operation is fn(a, b, node, jet): its operands' values (b unused by
# one-operand kinds), its AST node (the position errors name, or the
# function's name) and the (dim, order) of a pass on jets (None on values).
# Values: Python floats, and node arrays, by Python's operators.
_VALUE_OPS = {
    "num": lambda a, b, node, jet: node.value,
    "+": lambda a, b, node, jet: a + b,
    "-": lambda a, b, node, jet: a - b,
    "*": lambda a, b, node, jet: a * b,
    "/": lambda a, b, node, jet: _divide(a, b),
    "^": lambda a, b, node, jet: _scalar_power(a, _exponent(b, node.pos), node.pos),
    "neg": lambda a, b, node, jet: -a,
    "call": lambda a, b, node, jet: _call_scalar(node.name, a, node.pos),
    "unknown": _unknown,
}
# Jets, by whether each operand varies (True: a coefficient array) or not (a
# float), with the arithmetic of ``Jet``'s operators; an operation whose
# operands are all floats takes its ``_VALUE_OPS`` form.
_JET_OPS = {
    ("+", True, True): lambda a, b, node, jet: a + b,
    ("+", True, False): lambda a, b, node, jet: shifted_coeffs(a, b),
    ("+", False, True): lambda a, b, node, jet: shifted_coeffs(b, a),
    ("-", True, True): lambda a, b, node, jet: a - b,
    ("-", True, False): lambda a, b, node, jet: shifted_coeffs(a, -b),
    ("-", False, True): lambda a, b, node, jet: shifted_coeffs(-b, a),
    ("*", True, True): lambda a, b, node, jet: mul_coeffs(a, b, *jet),
    ("*", True, False): lambda a, b, node, jet: a * b,
    ("*", False, True): lambda a, b, node, jet: b * a,
    ("/", True, True): lambda a, b, node, jet: mul_coeffs(a, reciprocal_coeffs(b, *jet),
                                                          *jet),
    ("/", True, False): lambda a, b, node, jet: _divide(a, b),
    ("/", False, True): lambda a, b, node, jet: reciprocal_coeffs(b, *jet) * a,
    ("^", True, True): lambda a, b, node, jet: _jet_power(
        a, _jet_exponent(b, node.pos), jet),
    ("^", True, False): lambda a, b, node, jet: _jet_power(a, _exponent(b, node.pos), jet),
    ("^", False, True): lambda a, b, node, jet: _scalar_power(
        a, _jet_exponent(b, node.pos), node.pos),
    ("neg", True): lambda a, b, node, jet: -a,
    ("call", True): lambda a, b, node, jet: compose_rows(node.name, a, *jet),
}


def _operation(node: Node) -> tuple[str, tuple]:
    """The operation of a node and its operand nodes."""
    kind = type(node)
    if kind is Binary:
        return node.op, (node.left, node.right)
    if kind is Call:
        return ("^" if node.name == "pow" else "call"), node.args
    if kind is Unary:
        return "neg", (node.operand,)
    if kind is Num:
        return "num", ()
    return "unknown", ()   # a Var that is no input, or not an AST node


class Program:
    """ASTs compiled into one straight-line program over named inputs.

    ``nodes`` is the node of each instruction: each node object that the
    ASTs reach, once, in post-order, so the instruction of the k-th AST,
    ``outputs[k]``, comes after all it reads, and the first k outputs need
    the prefix ``nodes[:ends[k]]``.  ``varies[i]`` tells whether instruction
    i varies with the inputs: in a pass on jets its value is then a
    coefficient array, else a float.  An instruction whose operands are all
    constants is computed here, once; one that raises stays in the program,
    so that its error comes at its place in each pass.
    """

    def __init__(self, asts, names, varying=None):
        """``names``: the inputs, in the order ``registers`` takes their
        values; an identifier that is none of them raises when its
        instruction runs.  ``varying``: the names whose values vary (all by
        default); in a pass on jets the others are floats."""
        varying = set(names if varying is None else varying)
        inputs = {name: i for i, name in enumerate(names)}
        index, nodes, varies, init = {}, [], [], []
        computed = set()   # the instructions computed here
        code, self._inputs = [], []   # code: (dst, jet op, value op, a, b, node)

        def visit(node):
            if id(node) in index:
                return index[id(node)]
            op, operands = _operation(node)
            args = list(map(visit, operands))   # no frame per level: MAX_DEPTH
            kinds = [varies[i] for i in args]
            dst = index[id(node)] = len(nodes)
            nodes.append(node)
            init.append(None)
            if isinstance(node, Var) and node.name in inputs:
                varies.append(node.name in varying)
                self._inputs.append((dst, inputs[node.name]))
                return dst
            # a power varies with its base only: its exponent is a number
            varies.append(kinds[0] if op == "^" else any(kinds))
            a, b = (args + [dst, dst])[:2]   # the ones a node lacks are unused
            if computed.issuperset(args):
                try:
                    init[dst] = _VALUE_OPS[op](init[a], init[b], node, None)
                    computed.add(dst)
                    return dst
                except Exception:   # raised again, in its place, by each pass
                    pass
            jet_op = _JET_OPS[(op, *kinds)] if any(kinds) else _VALUE_OPS[op]
            code.append((dst, jet_op, _VALUE_OPS[op], a, b, node))
            return dst

        self.outputs = [visit(node) for node in asts]
        self.nodes, self.varies, self._init = tuple(nodes), tuple(varies), init
        self.ends = [0]
        for out in self.outputs:
            self.ends.append(max(self.ends[-1], out + 1))
        # each output prefix's instructions: a prefix of the code
        dsts = [entry[0] for entry in code]
        self._code_ends = [bisect_left(dsts, end) for end in self.ends]
        self._jet_code = [(dst, op, a, b, node) for dst, op, _, a, b, node in code]
        self._value_code = [(dst, op, a, b, node) for dst, _, op, a, b, node in code]

    def registers(self, values) -> list:
        """A pass's register file: the constants, and ``values`` of the
        inputs in ``names`` order (jets as coefficient arrays)."""
        regs = self._init.copy()
        for dst, i in self._inputs:
            regs[dst] = values[i]
        return regs

    def run(self, regs, first: int, last: int, jet=None, out=None):
        """Run on ``regs`` the instructions that outputs first..last-1 need
        beyond those of the outputs before ``first``: on jets of (dim, order)
        ``jet``, or, for jet None, on floats and node arrays.  With ``out``,
        write those outputs into its rows first..last-1: a (rows, ncoef)
        array of zeros for jets, or (rows, N) for N nodes."""
        code = self._value_code if jet is None else self._jet_code
        for dst, op, a, b, node in code[self._code_ends[first]:self._code_ends[last]]:
            regs[dst] = op(regs[a], regs[b], node, jet)
        if out is not None:
            for row in range(first, last):
                i = self.outputs[row]
                if jet is None or self.varies[i]:
                    out[row] = regs[i]
                else:
                    out[row, 0] = regs[i]


def evaluate(node: Node, env: dict):
    """Evaluate an AST over an environment of floats, node arrays or jets,
    by one ``Program`` compiled for the call.  Jets, which must share their
    dimension, are read at the lowest order among them, and the value is a
    jet when it varies with them; names bound to numbers are constants."""
    jets = {name: value for name, value in env.items() if isinstance(value, Jet)}
    jet, values = None, list(env.values())
    if jets:
        dims = {j.dim for j in jets.values()}
        if len(dims) > 1:
            raise DimensionMismatch(f"jet dims differ: {sorted(dims)}")
        jet = (dims.pop(), min(j.order for j in jets.values()))
        nc = n_coeffs(*jet)
        values = [v.coeffs[:nc] if name in jets else v for name, v in env.items()]
    program = Program(intern([node]), list(env), jets)
    regs = program.registers(values)
    program.run(regs, 0, 1, jet)
    out = program.outputs[0]
    if jet is not None and program.varies[out]:
        return Jet._unchecked(*jet, regs[out])
    return regs[out]


def intern(nodes) -> list:
    """The ASTs ``nodes`` hash-consed: equal subtrees (positions aside)
    become one node object, so a ``Program`` of them computes each once.

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
        else:   # not an AST node: left to ``Program`` to reject
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
