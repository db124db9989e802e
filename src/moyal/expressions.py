"""The expression language: a tokenizer and a precedence-climbing parser that
compiles to a postfix program, and the stack loop that runs it over a space.

Grammar (tightest binding last):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)*
    atom    := INT | NAME | '(' expr ')'

NAME is one of the reserved symbols `i`, `mu` or a variable of the target
space (q1..qn / p1..pn for phase space, u/v/w-prefixed names for sigma
slots).  '^' takes a nonnegative integer literal.  '/' is ordinary division,
but the divisor must evaluate to a nonzero constant (a field element such as
`2` or `mu^2`): dividing by a genuine polynomial is rejected at evaluation.

`parse` turns the whole source into a flat postfix program before anything
is evaluated, so a syntax error anywhere is reported ahead of an unknown
variable or a bad division, and a malformed tail never waits on an expensive
power in front of it.  The program runs left operand, right operand,
operator, so of two evaluation errors the earlier in that order wins: the
division in `q1/p1 + x`, the unknown `x` in `x/p1`.
Parse errors carry line, column, and the offending token.  Polynomials
printed by this package reparse to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .errors import ExpressionError
from .poly import Poly, Space

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_SYMBOLS = {"i": scalars.I, "mu": scalars.MU}

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
        if "0" <= ch <= "9":  # not str.isdigit, which takes '²' that int() rejects
            start = idx
            start_col = col
            while idx < len(source) and "0" <= source[idx] <= "9":
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
    """Appends each parsed construct to `program` in postfix order:
    ("num", int), ("name", str), ("neg", None), ("^", int) and (op, None)
    for the binary operators, each after its operands."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.program: list[tuple] = []

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

    def integer(self, tok: Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            self.fail("integer literal too long", tok)

    def nest(self, tok: Token):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels", tok)

    def parse_expression(self, min_prec: int = 1) -> None:
        self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _PRECEDENCE:
                return
            prec = _PRECEDENCE[tok.text]
            if prec < min_prec:
                return
            self.advance()
            self.parse_expression(prec + 1)
            self.program.append((tok.text, None))

    def parse_unary(self) -> None:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            self.nest(tok)
            self.parse_unary()
            self.program.append(("neg", None))
            self.depth -= 1
            return
        self.parse_power()

    def parse_power(self) -> None:
        self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text != "^":
                return
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                self.fail("exponent must be a nonnegative integer literal", exp_tok)
            self.advance()
            self.program.append(("^", self.integer(exp_tok)))

    def parse_atom(self) -> None:
        tok = self.advance()
        if tok.kind == "int":
            self.program.append(("num", self.integer(tok)))
            return
        if tok.kind == "name":
            self.program.append(("name", tok.text))
            return
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            self.parse_expression()
            closing = self.advance()
            if closing.kind != "op" or closing.text != ")":
                self.fail("expected ')'", closing)
            self.depth -= 1
            return
        self.fail("expected a number, a name, or '('", tok)


def parse(source: str) -> list[tuple]:
    """Parse a source string into a postfix program."""
    parser = _Parser(tokenize(source))
    parser.parse_expression()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail("unexpected trailing input", tail)
    return parser.program


# -- evaluation --------------------------------------------------------------


def _run(program: list[tuple], space: Space) -> Poly:
    """Run a postfix program over the given space on one operand stack."""
    stack: list[Poly] = []
    for op, arg in program:
        if op == "num":
            stack.append(Poly.constant(space, scalars.Coefficient.from_int(arg)))
        elif op == "name":
            stack.append(_leaf(arg, space))
        elif op == "neg":
            stack[-1] = -stack[-1]
        elif op == "^":
            stack[-1] = stack[-1] ** arg
        else:
            right = stack.pop()
            if op == "+":
                stack[-1] = stack[-1] + right
            elif op == "-":
                stack[-1] = stack[-1] - right
            elif op == "*":
                stack[-1] = stack[-1] * right
            else:
                divisor = right.constant_term()
                if right.total_degree() > 0 or not divisor:
                    raise ExpressionError(
                        "division is only defined by nonzero constants "
                        "(field elements such as 2 or mu^2)",
                        token="/",
                    )
                stack[-1] = stack[-1].scale(divisor.inverse())
    return stack[0]


def _leaf(name: str, space: Space) -> Poly:
    if name in _SYMBOLS:
        return Poly.constant(space, _SYMBOLS[name])
    if name not in space.index:
        raise ExpressionError(
            f"unknown variable {name!r}; expected one of "
            f"{', '.join(space.names) or '(constants only)'}",
            token=name,
        )
    return Poly.variable(space, name)


def parse_poly(source: str, space: Space) -> Poly:
    """Parse and evaluate an expression over the given variable space."""
    return _run(parse(source), space)


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
