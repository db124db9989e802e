"""Expression language: grammar, round trips, error reporting."""

import json
import random

import pytest

from moyal import scalars
from moyal.errors import ExpressionError
from moyal.expressions import MAX_NESTING, parse_coefficient, parse_poly, parse_series
from moyal.poly import Poly, pair_space, phase_space

SP = phase_space(1)


def test_poly_print_parse_round_trip():
    rng = random.Random(73)
    from conftest import random_poly

    for space in (SP, phase_space(2), pair_space(1)):
        for _ in range(20):
            p = random_poly(rng, space, 4, terms=4)
            assert parse_poly(str(p), space) == p


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1 + 2*3", 7),
        ("(1 + 2)*3", 9),
        ("2^3^1", 8),
        ("-2^2", -4),
        ("6/2/3", 1),
        ("1 - 2 - 3", -4),
    ],
)
def test_precedence(text, expected):
    poly = parse_poly(text, SP)
    assert poly == Poly.constant(SP, scalars.Coefficient.from_int(expected))


def test_unary_minus_binds_looser_than_power():
    q1 = Poly.variable(SP, "q1")
    assert parse_poly("-q1^2", SP) == -(q1**2)


def test_error_positions():
    with pytest.raises(ExpressionError) as err:
        parse_poly("q1 +\n* p1", SP)
    assert err.value.line == 2
    assert err.value.column == 1
    with pytest.raises(ExpressionError) as err:
        parse_poly("q1 ? p1", SP)
    assert err.value.column == 4
    assert err.value.token == "?"


@pytest.mark.parametrize(
    "source, message, line, column, token",
    [
        ("(q1 + p1", "expected ')'", 1, 9, ""),
        ("q1*(p1\n+ 1", "expected ')'", 2, 4, ""),
        ("q1 p1", "unexpected trailing input", 1, 4, "p1"),
        ("q1)", "unexpected trailing input", 1, 3, ")"),
    ],
    ids=["unclosed", "unclosed-second-line", "juxtaposed", "stray-parenthesis"],
)
def test_unclosed_and_trailing_input_positions(source, message, line, column, token):
    with pytest.raises(ExpressionError) as err:
        parse_poly(source, SP)
    assert (err.value.line, err.value.column, err.value.token) == (line, column, token)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_unknown_variable_message_lists_space():
    with pytest.raises(ExpressionError) as err:
        parse_poly("q3", SP)
    assert "q3" in str(err.value)
    assert "q1" in str(err.value)


def test_division_restrictions():
    assert parse_poly("q1/2", SP) == Poly.variable(SP, "q1").scale(
        scalars.Coefficient.from_ints([1], (), 2)
    )
    assert parse_poly("q1/mu^2", SP) == Poly.variable(SP, "q1").scale(
        (scalars.MU * scalars.MU).inverse()
    )
    with pytest.raises(ExpressionError):
        parse_poly("q1/p1", SP)
    with pytest.raises(ExpressionError):
        parse_poly("q1/0", SP)
    with pytest.raises(ExpressionError):
        parse_poly("q1/(mu - mu)", SP)


def test_exponent_must_be_nonnegative_literal():
    with pytest.raises(ExpressionError):
        parse_poly("q1^mu", SP)
    with pytest.raises(ExpressionError):
        parse_poly("q1^(2)", SP)


def test_series_parsing():
    series = parse_series("1, 1/6, mu^2, -i")
    assert series[0] == scalars.ONE
    assert series[2] == scalars.MU * scalars.MU
    assert series[3] == -scalars.I
    with pytest.raises(ExpressionError):
        parse_series("1,,2")
    with pytest.raises(ExpressionError):
        parse_series("  ")


def test_parse_coefficient_rejects_variables():
    with pytest.raises(ExpressionError):
        parse_coefficient("q1 + 1")


@pytest.mark.parametrize(
    "source",
    ["(" * 1200 + "q1" + ")" * 1200, "(" + "-" * 3000 + "q1)"],
    ids=["parentheses", "unary-minus"],
)
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ExpressionError, match="nested deeper"):
        parse_poly(source, SP)


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING
    assert parse_poly("(" * depth + "q1" + ")" * depth, SP) == Poly.variable(SP, "q1")
    assert parse_poly("-" * depth + "q1", SP) == parse_poly("q1", SP)


CHAIN_LENGTH = 1200


def test_long_operator_chains_evaluate():
    # Neither parsing nor evaluation may recurse per link of a chain.
    q1 = parse_poly("q1", SP)
    total = parse_poly(" + ".join(["q1"] * CHAIN_LENGTH), SP)
    assert total == q1.scale(scalars.Coefficient.from_int(CHAIN_LENGTH))
    assert parse_poly(" - ".join(["q1"] * CHAIN_LENGTH), SP) == q1.scale(
        scalars.Coefficient.from_int(2 - CHAIN_LENGTH)
    )
    assert parse_poly("*".join(["1"] * (CHAIN_LENGTH - 1) + ["q1"]), SP) == q1
    assert parse_poly("q1" + "/1" * CHAIN_LENGTH, SP) == q1
    assert parse_poly("q1" + "^1" * CHAIN_LENGTH, SP) == q1


@pytest.mark.parametrize(
    "source,column,token,message",
    [
        ("x + (", 6, "", "expected a number, a name, or '('"),
        ("(1+mu)^20000 +", 15, "", "expected a number, a name, or '('"),
        ("q1/p1 + x", 0, "/", "division is only defined by nonzero constants"),
        ("x/p1", 0, "x", "unknown variable 'x'"),
    ],
    ids=["syntax-before-unknown", "syntax-before-power", "division-before-unknown", "unknown-before-division"],
)
def test_errors_follow_parse_then_evaluation_order(source, column, token, message):
    # The whole source is parsed before any of it is evaluated, and evaluation
    # runs left operand, right operand, operator.
    with pytest.raises(ExpressionError) as err:
        parse_poly(source, SP)
    assert (err.value.line, err.value.column, err.value.token) == (1, column, token)
    assert message in str(err.value)


@pytest.mark.parametrize(
    "source,column,token,message",
    [
        ("2²", 2, "²", "unexpected character '²'"),
        ("7" * 5000, 1, "7" * 5000, "integer literal too long"),
        ("q1^" + "7" * 5000, 4, "7" * 5000, "integer literal too long"),
    ],
    ids=["non-ascii-digit", "long-literal", "long-exponent"],
)
def test_cli_reports_bad_literals_at_their_token(capsys, source, column, token, message):
    from moyal.cli import run

    assert run(["--json", "star", source, "p1"]) == 2
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness == {"message": f"line 1, column {column}: {message}", "token": token}
