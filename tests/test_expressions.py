"""Expression language: grammar, round trips, error reporting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from moyal import scalars
from moyal.errors import ExpressionError
from moyal.expressions import (
    MAX_NESTING,
    BinOp,
    Neg,
    Num,
    Pow,
    Sym,
    Var,
    parse,
    parse_coefficient,
    parse_poly,
    parse_series,
    print_ast,
)
from moyal.poly import Poly, pair_space, phase_space

SP = phase_space(1)


def random_ast(rng: random.Random, depth: int):
    if depth == 0:
        return rng.choice(
            [
                Num(rng.randint(0, 9)),
                Sym(rng.choice(["i", "mu"])),
                Var(rng.choice(["q1", "p1"])),
            ]
        )
    kind = rng.randrange(6)
    if kind == 0:
        return Neg(random_ast(rng, depth - 1))
    if kind == 1:
        base = rng.choice([Sym("mu"), Var("q1"), Var("p1"), Num(rng.randint(0, 5))])
        return Pow(base, rng.randint(0, 4))
    op = rng.choice(["+", "-", "*", "/"])
    return BinOp(op, random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def test_parse_print_round_trip_200_random_asts():
    rng = random.Random(71)
    checked = 0
    while checked < 200:
        ast = random_ast(rng, rng.randint(1, 4))
        text = print_ast(ast)
        assert parse(text) == ast, text
        checked += 1


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
    assert parse("-q1^2") == Neg(Pow(Var("q1"), 2))


def test_error_positions():
    with pytest.raises(ExpressionError) as err:
        parse("q1 +\n* p1")
    assert err.value.line == 2
    assert err.value.column == 1
    with pytest.raises(ExpressionError) as err:
        parse("q1 ? p1")
    assert err.value.column == 4
    assert err.value.token == "?"


def test_unknown_variable_message_lists_space():
    with pytest.raises(ExpressionError) as err:
        parse_poly("q3", SP)
    assert "q3" in str(err.value)
    assert "q1" in str(err.value)


def test_division_restrictions():
    assert parse_poly("q1/2", SP) == Poly.variable(SP, "q1").scale(
        scalars.Coefficient.from_fraction("1/2")
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
        parse("q1^mu")
    with pytest.raises(ExpressionError):
        parse("q1^(2)")


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
        parse(source)


def test_nesting_up_to_the_limit_parses():
    depth = MAX_NESTING
    assert parse("(" * depth + "q1" + ")" * depth) == Var("q1")
    assert parse_poly("-" * depth + "q1", SP) == parse_poly("q1", SP)


CHAIN_LENGTH = 1200


def test_long_operator_chains_evaluate():
    # The parser builds these chains left-deep; evaluation must not recurse per link.
    q1 = parse_poly("q1", SP)
    total = parse_poly(" + ".join(["q1"] * CHAIN_LENGTH), SP)
    assert total == q1.scale(scalars.Coefficient.from_int(CHAIN_LENGTH))
    assert parse_poly(" - ".join(["q1"] * CHAIN_LENGTH), SP) == q1.scale(
        scalars.Coefficient.from_int(2 - CHAIN_LENGTH)
    )
    assert parse_poly("*".join(["1"] * (CHAIN_LENGTH - 1) + ["q1"]), SP) == q1
    assert parse_poly("q1" + "/1" * CHAIN_LENGTH, SP) == q1
    assert parse_poly("q1" + "^1" * CHAIN_LENGTH, SP) == q1


AST_LEAVES = st.one_of(
    st.builds(Num, st.integers(0, 12)),
    st.builds(Sym, st.sampled_from(["i", "mu"])),
    st.builds(Var, st.sampled_from(["q1", "p1", "u2"])),
)
ASTS = st.recursive(
    AST_LEAVES,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Pow, inner, st.integers(0, 4)),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), inner, inner),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(ASTS)
def test_print_parse_round_trip_on_generated_asts(ast):
    again = parse(print_ast(ast))
    assert again == ast
    assert hash(again) == hash(ast)


@pytest.mark.parametrize(
    "source",
    [
        " + ".join(["q1"] * CHAIN_LENGTH),
        " - ".join(["(q1 - p1)"] * CHAIN_LENGTH),
        "*".join(["(mu + q1)"] * CHAIN_LENGTH),
        "/".join(["-q1"] + ["2"] * CHAIN_LENGTH),
        "(q1 + p1)" + "^1" * CHAIN_LENGTH,
    ],
    ids=["sum", "difference", "product", "quotient", "power"],
)
def test_long_chains_print_compare_and_hash(source):
    # print_ast, == and hash walk left-deep chains without recursing per link.
    ast = parse(source)
    text = print_ast(ast)
    assert parse(text) == ast
    assert hash(parse(text)) == hash(ast)
    assert parse(source + " + 1") != ast
    assert parse(source.replace("q1", "q1^2", 1)) != parse(source.replace("q1", "q1^3", 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: BinOp("*", Num(2), Num(-1)),
        lambda: Var("q 1"),
        lambda: Var(""),
        lambda: Var("1q"),
        lambda: Var("mu"),
        lambda: Var("i"),
        lambda: Sym("hbar"),
        lambda: BinOp("%", Num(1), Num(2)),
        lambda: Pow(Var("q1"), -1),
        lambda: Pow(Var("q1"), 1.5),
        lambda: Num(True),
    ],
    ids=[
        "negative-num",
        "space-in-name",
        "empty-name",
        "digit-first",
        "var-mu",
        "var-i",
        "unknown-symbol",
        "unknown-operator",
        "negative-exponent",
        "fractional-exponent",
        "bool-num",
    ],
)
def test_constructors_reject_nodes_the_parser_never_builds(build):
    with pytest.raises(ExpressionError):
        build()


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=0, max_size=6))
def test_every_accepted_name_round_trips(name):
    # A name the constructors accept prints as one NAME token and parses back.
    try:
        node = Var(name)
    except ExpressionError:
        assert not name[:1].isalpha() or name in ("i", "mu") or not name.replace("_", "a").isalnum()
        return
    assert parse(print_ast(node)) == node
    assert parse(print_ast(BinOp("*", node, Pow(node, 2)))) == BinOp("*", node, Pow(node, 2))
