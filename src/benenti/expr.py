"""Parser and evaluator for the scalar-expression language.

Metric components and test functions are written in this little infix
language: ``+ - * / ^`` with the usual precedence (``^`` right-associative
and highest, then unary minus, then ``* /``, then ``+ -``), parentheses,
decimal literals with optional exponent, and the unary functions ``sin``,
``cos``, ``exp``, ``ln``, ``sqrt``, ``abs``.  Identifiers must be declared
coordinate names; anything else is rejected at parse time.  There is no
implicit multiplication, so ``2x`` is a syntax error.

The exponent of ``^`` must be a constant subexpression (it is folded to a
literal during parsing), which keeps fractional powers like ``x^(1/3)``
well-defined in jet arithmetic.

Parsed expressions are immutable trees; evaluation works over either plain
floats or jets and is pure.  Either kind may come as a batch: coordinates
assigned 1-d float arrays, or batched jets, evaluate the expression at every
point of the batch at once, with for each point the floating-point
operations of the single-point evaluation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from . import jets
from .errors import (
    EvaluationDomainError,
    ExpressionSyntaxError,
    SingularInputError,
)

FUNCTIONS = ("abs", "cos", "exp", "ln", "sin", "sqrt")


@dataclass(frozen=True)
class Const:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expression"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expression"
    pos: int = field(default=0, compare=False)


Expression = Union[Const, Var, Neg, BinOp, Call]

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)

_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_BP = 30


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            pos = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", pos)
        kind = m.lastgroup
        val = m.group(kind)
        tokens.append((kind, val, m.end() - len(val)))
        i = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Pratt parser over the token list; see module docstring for precedence."""

    def __init__(self, text: str, coordinates: Sequence[str]):
        self.coords = set(coordinates)
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, symbol):
        kind, val, pos = self.peek()
        if kind != "op" or val != symbol:
            shown = "end of input" if kind == "end" else repr(val)
            raise ExpressionSyntaxError(f"expected {symbol!r}, found {shown}", pos)
        return self.advance()

    def parse(self) -> Expression:
        e = self.expression(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {val!r}", pos)
        return e

    def expression(self, rbp: int) -> Expression:
        left = self.prefix()
        while True:
            kind, val, pos = self.peek()
            if kind != "op":
                break
            lbp = _PRECEDENCE.get(val, 0)
            if lbp <= rbp:
                break
            self.advance()
            if val == "^":
                # right-associative; exponent must fold to a constant
                right = self.expression(lbp - 1)
                left = BinOp("^", left, self._fold_exponent(right), pos)
            else:
                right = self.expression(lbp)
                left = BinOp(val, left, right, pos)
        return left

    def prefix(self) -> Expression:
        kind, val, pos = self.advance()
        if kind == "num":
            return Const(float(val), pos)
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                args = [self.expression(0)]
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expression(0))
                self.expect_op(")")
                if len(args) != 1:
                    raise ExpressionSyntaxError(
                        f"{val} takes 1 argument, got {len(args)}", pos
                    )
                return Call(val, args[0], pos)
            if val in self.coords:
                return Var(val, pos)
            raise ExpressionSyntaxError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            e = self.expression(0)
            self.expect_op(")")
            return e
        if kind == "op" and val == "-":
            return Neg(self.expression(_UNARY_BP), pos)
        if kind == "op" and val == "+":
            return self.expression(_UNARY_BP)
        if kind == "end":
            raise ExpressionSyntaxError("unexpected end of input", pos)
        raise ExpressionSyntaxError(f"unexpected {val!r}", pos)

    def _fold_exponent(self, e: Expression) -> Const:
        if variables(e):
            raise ExpressionSyntaxError(
                "exponent of ^ must be a constant subexpression", e.pos
            )
        try:
            value = float(evaluate(e, {}))
        except (EvaluationDomainError, OverflowError) as err:
            raise ExpressionSyntaxError(
                f"cannot evaluate constant exponent: {err}", e.pos
            ) from err
        return Const(value, e.pos)


def parse(text: str, coordinates: Sequence[str]) -> Expression:
    """Parse expression text over the given coordinate names."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return _Parser(text, coordinates).parse()


def variables(e: Expression) -> set[str]:
    """Names of all coordinates appearing in the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return variables(e.operand)
    if isinstance(e, BinOp):
        return variables(e.left) | variables(e.right)
    if isinstance(e, Call):
        return variables(e.arg)
    return set()


def _real_log(value: float) -> float:
    if value <= 0:
        raise ValueError(f"ln of non-positive value {value}")
    return math.log(value)


_REAL_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "ln": _real_log,
    "sqrt": math.sqrt,
    "abs": abs,
}

_JET_FUNCS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "ln": jets.log,
    "sqrt": jets.sqrt,
    "abs": jets.absolute,
}

_DOMAIN_ERRORS = (SingularInputError, ValueError, ZeroDivisionError, OverflowError)


def evaluate(e: Expression, assignment: Mapping[str, object]):
    """Evaluate over floats or jets, depending on the assigned values.

    All assigned jets must share nvars, order and batch; assigned float
    arrays must share their length.  Domain failures (division by zero,
    ``ln`` or ``sqrt`` off-domain, overflow) are raised as
    :class:`EvaluationDomainError` carrying the character offset of the AST
    node at which evaluation failed; in a batch, a failure at any point
    fails the whole evaluation.
    """
    sample = next((v for v in assignment.values() if isinstance(v, jets.Jet)), None)
    batch = None if sample is None else sample.batch

    def const(value):
        if sample is None:
            return value
        return jets.Jet.constant(value, sample.nvars, sample.order, batch)

    def rec(node):
        if isinstance(node, Const):
            return const(node.value)
        if isinstance(node, Var):
            try:
                return assignment[node.name]
            except KeyError:
                raise EvaluationDomainError(
                    f"unassigned variable {node.name!r}", node.pos
                ) from None
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, BinOp):
            left = rec(node.left)
            if node.op == "^":
                exponent = node.right.value
                try:
                    if isinstance(left, jets.Jet):
                        return jets.power(left, exponent)
                    return _pointwise(lambda b: _real_power(b, exponent), left)
                except _DOMAIN_ERRORS as err:
                    raise EvaluationDomainError(str(err), node.pos) from err
            right = rec(node.right)
            try:
                if node.op == "+":
                    return left + right
                if node.op == "-":
                    return left - right
                if node.op == "*":
                    return left * right
                return _divide(left, right)
            except _DOMAIN_ERRORS as err:
                raise EvaluationDomainError(str(err), node.pos) from err
        if isinstance(node, Call):
            arg = rec(node.arg)
            try:
                if isinstance(arg, jets.Jet):
                    return _JET_FUNCS[node.func](arg)
                return _pointwise(_REAL_FUNCS[node.func], arg)
            except _DOMAIN_ERRORS as err:
                raise EvaluationDomainError(str(err), node.pos) from err
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


def _pointwise(fn, value):
    """``fn`` of a float, or of each float of an array by the same scalar
    code (array ``exp`` or ``**`` can round differently from ``math``)."""
    if isinstance(value, np.ndarray):
        return np.array([fn(float(v)) for v in value])
    return fn(value)


def _divide(left, right):
    """``left / right``; a zero divisor raises for arrays as for floats."""
    if (isinstance(left, np.ndarray) or isinstance(right, np.ndarray)) and np.any(
        np.equal(right, 0.0)
    ):
        raise ZeroDivisionError("float division by zero")
    return left / right


def _real_power(base: float, exponent: float):
    if exponent == int(exponent):
        return float(base) ** int(exponent)
    if base <= 0:
        raise ValueError(f"fractional power of non-positive value {base}")
    return base**exponent


def _bp(node: Expression) -> int:
    if isinstance(node, Neg):
        return _UNARY_BP
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    return 100  # atoms never need parentheses


def to_text(e: Expression) -> str:
    """Render back to expression text; reparsing yields an equal tree.

    Parentheses are inserted exactly where the tree shape requires them, so
    non-associative groupings like ``a - (b - c)`` survive the round trip.
    """

    def render(node, min_bp):
        if isinstance(node, Const):
            text = repr(node.value)
        elif isinstance(node, Var):
            text = node.name
        elif isinstance(node, Call):
            text = f"{node.func}({render(node.arg, 0)})"
        elif isinstance(node, Neg):
            text = f"-{render(node.operand, _UNARY_BP)}"
        else:
            bp = _PRECEDENCE[node.op]
            if node.op == "^":
                text = f"{render(node.left, bp + 1)}^{render(node.right, bp)}"
            else:
                # left-associative: parenthesize a same-precedence right child
                text = (
                    f"{render(node.left, bp)} {node.op} "
                    f"{render(node.right, bp + 1)}"
                )
        if _bp(node) < min_bp:
            return f"({text})"
        return text

    return render(e, 0)
