"""The expression language: tokenizer, precedence-climbing parser, printer.

Grammar (tightest binding last):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ['^' INT]
    atom    := INT | NAME | '(' expr ')'

NAME is one of the reserved symbols `i`, `mu` or a variable of the target
space (q1..qn / p1..pn for phase space, u/v/w-prefixed names for sigma
slots).  '^' takes a nonnegative integer literal.  '/' is ordinary division,
but the divisor must evaluate to a nonzero constant (a field element such as
`2` or `mu^2`): dividing by a genuine polynomial is rejected at evaluation.

Parse errors carry line, column, and the offending token.  `print_ast` is a
strict inverse of `parse` on ASTs, and polynomials printed by this package
reparse to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import scalars
from .errors import ExpressionError
from .poly import Poly, Space

# -- AST --------------------------------------------------------------------


# The constructors accept exactly the nodes the parser builds, so that
# print_ast inverts parse on every tree they accept.


def _reject(message: str, token) -> None:
    raise ExpressionError(message, token=str(token))


def _is_name(text) -> bool:
    """A NAME token as `tokenize` reads it: a letter, then letters, digits or '_'."""
    return (
        isinstance(text, str)
        and text[:1].isalpha()
        and all(ch.isalnum() or ch == "_" for ch in text[1:])
    )


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


@dataclass(frozen=True)
class Num:
    value: int

    def __post_init__(self):
        if not _is_count(self.value):
            _reject(f"a number literal is a nonnegative integer, not {self.value!r}", self.value)


@dataclass(frozen=True)
class Sym:
    name: str  # "i" or "mu"

    def __post_init__(self):
        if self.name not in _SYMBOLS:
            _reject(f"the reserved symbols are i and mu, not {self.name!r}", self.name)


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not _is_name(self.name) or self.name in _SYMBOLS:
            _reject(f"{self.name!r} is not a variable name", self.name)


@dataclass(frozen=True)
class Neg:
    operand: "Node"


def _prefix(node: "Node") -> list:
    """The tree in prefix order, walked with a stack rather than by recursion."""
    out = []
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, BinOp):
            out.append(node.op)
            pending += (node.right, node.left)
        elif isinstance(node, Pow):
            out.append(("^", node.exponent))
            pending.append(node.base)
        else:
            out.append(node)
    return out


def _tree_eq(self, other):
    if type(other) is not type(self):
        return NotImplemented
    return _prefix(self) == _prefix(other)


def _tree_hash(self):
    return hash(tuple(_prefix(self)))


# Parsed operator chains nest left-deep with no bound on their length, so
# BinOp and Pow compare and hash without recursion.
@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"

    __eq__ = _tree_eq
    __hash__ = _tree_hash

    def __post_init__(self):
        if self.op not in _PRECEDENCE:
            _reject(f"unknown binary operator {self.op!r}", self.op)


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int

    __eq__ = _tree_eq
    __hash__ = _tree_hash

    def __post_init__(self):
        if not _is_count(self.exponent):
            _reject(f"an exponent is a nonnegative integer, not {self.exponent!r}", self.exponent)


Node = Union[Num, Sym, Var, Neg, BinOp, Pow]

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_SYMBOLS = ("i", "mu")

# Parentheses and unary minus nest by recursion; deeper input is a parse
# error rather than an exhausted interpreter stack.
MAX_NESTING = 100


# -- tokenizer ---------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    idx = 0
    while idx < len(source):
        ch = source[idx]
        if ch == "\n":
            line += 1
            col = 1
            idx += 1
            continue
        if ch.isspace():
            idx += 1
            col += 1
            continue
        if ch.isdigit():
            start = idx
            start_col = col
            while idx < len(source) and source[idx].isdigit():
                idx += 1
                col += 1
            tokens.append(Token("int", source[start:idx], line, start_col))
            continue
        if ch.isalpha():
            start = idx
            start_col = col
            while idx < len(source) and (source[idx].isalnum() or source[idx] == "_"):
                idx += 1
                col += 1
            tokens.append(Token("name", source[start:idx], line, start_col))
            continue
        if ch in "+-*/^()":
            tokens.append(Token("op", ch, line, col))
            idx += 1
            col += 1
            continue
        raise ExpressionError(
            f"unexpected character {ch!r}", line=line, column=col, token=ch
        )
    tokens.append(Token("end", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token):
        raise ExpressionError(
            message, line=tok.line, column=tok.column, token=tok.text
        )

    def nest(self, tok: Token):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)

    def parse_expression(self, min_prec: int = 1) -> Node:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _PRECEDENCE:
                return left
            prec = _PRECEDENCE[tok.text]
            if prec < min_prec:
                return left
            self.advance()
            right = self.parse_expression(prec + 1)
            left = BinOp(tok.text, left, right)

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            self.nest(tok)
            node = Neg(self.parse_unary())
            self.depth -= 1
            return node
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text != "^":
                return base
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                self.fail("exponent must be a nonnegative integer literal", exp_tok)
            self.advance()
            base = Pow(base, int(exp_tok.text))

    def parse_atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "int":
            return Num(int(tok.text))
        if tok.kind == "name":
            if tok.text in _SYMBOLS:
                return Sym(tok.text)
            return Var(tok.text)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            inner = self.parse_expression()
            closing = self.advance()
            if closing.kind != "op" or closing.text != ")":
                self.fail("expected ')'", closing)
            self.depth -= 1
            return inner
        self.fail("expected a number, a name, or '('", tok)


def parse(source: str) -> Node:
    """Parse a source string into an AST."""
    parser = _Parser(tokenize(source))
    ast = parser.parse_expression()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail("unexpected trailing input", tail)
    return ast


# -- printing ----------------------------------------------------------------


def print_ast(node: Node) -> str:
    """Render an AST; parse(print_ast(ast)) == ast."""
    return _print(node, 0)


def _print(node: Node, parent_prec: int) -> str:
    # Left spines of `+ - * /` and `^` chains are walked iteratively, as in
    # `evaluate`; each spine entry remembers the precedence its parent asks for.
    spine = []
    while isinstance(node, (BinOp, Pow)):
        spine.append((node, parent_prec))
        if isinstance(node, Pow):
            node, parent_prec = node.base, 4
        else:
            node, parent_prec = node.left, _PRECEDENCE[node.op]
    text = _print_leaf(node, parent_prec)
    for op, parent_prec in reversed(spine):
        if isinstance(op, Pow):
            text = f"{text}^{op.exponent}"
            continue
        prec = _PRECEDENCE[op.op]
        right = _print(op.right, prec + 1)
        text = f"{text} {op.op} {right}" if prec == 1 else f"{text}{op.op}{right}"
        if parent_prec > prec:
            text = f"({text})"
    return text


def _print_leaf(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, (Sym, Var)):
        return node.name
    if isinstance(node, Neg):
        inner = _print(node.operand, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 2 else text
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation --------------------------------------------------------------


def evaluate(node: Node, space: Space) -> Poly:
    """Evaluate an AST to a polynomial over the given space."""
    # The parser builds `a + b + ...` and `a^1^1...` chains left-deep, with no
    # bound on their length, so their left spine is walked iteratively.
    spine = []
    while isinstance(node, (BinOp, Pow)):
        spine.append(node)
        node = node.left if isinstance(node, BinOp) else node.base
    value = _evaluate_leaf(node, space)
    for op in reversed(spine):
        if isinstance(op, Pow):
            value = value**op.exponent
            continue
        right = evaluate(op.right, space)
        if op.op == "+":
            value = value + right
        elif op.op == "-":
            value = value - right
        elif op.op == "*":
            value = value * right
        else:
            divisor = right.constant_term()
            if right.total_degree() > 0 or not divisor:
                raise ExpressionError(
                    "division is only defined by nonzero constants "
                    "(field elements such as 2 or mu^2)",
                    token="/",
                )
            value = value.scale(divisor.inverse())
    return value


def _evaluate_leaf(node: Node, space: Space) -> Poly:
    if isinstance(node, Num):
        return Poly.constant(space, scalars.Coefficient.from_int(node.value))
    if isinstance(node, Sym):
        value = scalars.I if node.name == "i" else scalars.MU
        return Poly.constant(space, value)
    if isinstance(node, Var):
        if node.name not in space.index:
            raise ExpressionError(
                f"unknown variable {node.name!r}; expected one of "
                f"{', '.join(space.names) or '(constants only)'}",
                token=node.name,
            )
        return Poly.variable(space, node.name)
    if isinstance(node, Neg):
        return -evaluate(node.operand, space)
    raise TypeError(f"not an AST node: {node!r}")


def parse_poly(source: str, space: Space) -> Poly:
    """Parse and evaluate an expression over the given variable space."""
    return evaluate(parse(source), space)


def parse_coefficient(source: str) -> scalars.Coefficient:
    """Parse a constant expression (no variables) into a field element."""
    poly = parse_poly(source, Space(()))
    return poly.constant_term()


def parse_series(source: str) -> list[scalars.Coefficient]:
    """Parse a comma-separated list of constant expressions."""
    pieces = source.split(",")
    if not any(p.strip() for p in pieces):
        raise ExpressionError("empty coefficient list", token=source)
    out = []
    for piece in pieces:
        piece = piece.strip()
        if not piece:
            raise ExpressionError("empty entry in coefficient list", token=source)
        out.append(parse_coefficient(piece))
    return out
