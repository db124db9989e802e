"""Differential tests for `poly.bilinear`, the one walk over term pairs.

Each caller of the walk (`Poly.__mul__`, `BiDiff.apply`, `star`,
`bracket`, `nc_mul`, `DiffOp.apply_once`/`apply_exp` and
`Poly.differentiate`) is compared with its per-term oracle in conftest.py,
which adds every product of two coefficients into the result at once.  The
operands are polynomial in mu, or carry a mu-denominator on their first term,
or on their last term only (so the walk splits after it has accumulated
terms), or are deferred products; `bracket` also meets a constant with a
rational coefficient, whose zero commutator pieces must not trigger a split.
A differential operator's coefficients are polynomial in mu, Gaussian, or
carry a mu-denominator, so the walk splits the operator too.  Both n = 1 and
n = 2 are covered, and results must agree in their terms and their printed
form.  The tables that calls share are read back: one operator is applied
to several targets in a row (its steps D/k come from the step table), and
`nc_mul` runs twice on the same operands (its pieces come from the word
table).  `exp_truncated`, the Coefficient oracle of the packed dressing in
conftest.py, is compared with a series that divides each term by k, and
`merge_slots` with `accumulate`.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import (
    accumulate,
    dressed_kernel,
    exp_truncated,
    oracle_apply,
    oracle_apply_exp,
    oracle_apply_once,
    oracle_bracket,
    oracle_mul,
    oracle_nc_mul,
    oracle_star,
    random_poly,
)
from moyal.expressions import parse_coefficient
from moyal.operators import NCPoly, nc_mul
from moyal.poly import DiffOp, Poly, pair_space, phase_space
from moyal.star import BiDiff, StarKernel, bracket, merge_slots, slot_sum, star

MAX_DEGREE = {1: 3, 2: 2}
# Denominators without roots in Q(i): no coefficient of `random_poly` cancels them.
FACTORS = [
    parse_coefficient(t) for t in ("1/(mu^2 + 2)", "(mu - i)/(mu^2 + 3)", "(1 + i)/(mu^2 - mu + 5)")
]
SHAPES = ("polynomial", "first", "last", "deferred")

cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.sampled_from(SHAPES),
    st.sampled_from(SHAPES),
)


def operand(rng, n, shape, degree=None):
    """A nonzero phase-space operand of the given shape (see the module docstring)."""
    if shape == "deferred":
        a, b = operand(rng, n, "first", 1), operand(rng, n, "last", 1)
        x = star(a, b, StarKernel.moyal(n))
        assert x.is_deferred
        return x
    space = phase_space(n)
    p = random_poly(rng, space, MAX_DEGREE[n] if degree is None else degree, terms=3)
    items = list((p or Poly.one(space)).terms.items())
    if shape != "polynomial":
        k = 0 if shape == "first" else len(items) - 1
        items[k] = (items[k][0], items[k][1] * rng.choice(FACTORS))
    return Poly(space, dict(items))


def setup(case):
    seed, n, f_shape, g_shape = case
    rng = random.Random(seed)
    return rng, n, operand(rng, n, f_shape), operand(rng, n, g_shape)


def assert_same(got, expected):
    assert got.terms == expected.terms
    assert str(got) == str(expected)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases)
def test_mul_truncated_at_every_bound(case):
    _, _, f, g = setup(case)
    assert_same(f * g, oracle_mul(f, g))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cases, st.booleans())
def test_apply_matches_the_oracle(case, rational_kernel):
    rng, n, f, g = setup(case)
    a = random_poly(rng, pair_space(n), 2, terms=3)
    if rational_kernel:
        a = a.scale(rng.choice(FACTORS))
    assert_same(BiDiff(a).apply(f, g), oracle_apply(a, f, g))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cases)
def test_star_matches_the_oracle(case):
    rng, n, f, g = setup(case)
    kernel = dressed_kernel(rng, n)
    assert_same(star(f, g, kernel), oracle_star(f, g, kernel))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(cases)
def test_bracket_matches_the_oracle(case):
    rng, n, f, g = setup(case)
    kernel = dressed_kernel(rng, n)
    constant = Poly.constant(f.space, rng.choice(FACTORS))
    f_plus = constant + f
    got = bracket(f_plus, g, kernel)
    assert_same(got, oracle_bracket(f_plus, g, kernel))
    assert_same(bracket(g, constant, kernel), Poly.zero(f.space))
    if case[2:] == ("polynomial", "polynomial"):
        # The constant's pairs are skipped before their coefficients meet.
        assert not got.is_deferred


def nc_operand(rng, n, shape):
    if shape == "deferred":
        a, b = nc_operand(rng, n, "first"), nc_operand(rng, n, "last")
        x = nc_mul(a, b)
        assert x.poly.is_deferred
        return x
    return NCPoly(n, dict(operand(rng, n, shape, MAX_DEGREE[n] - 1).terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cases)
def test_nc_mul_matches_the_oracle(case):
    seed, n, x_shape, y_shape = case
    rng = random.Random(seed)
    x, y = nc_operand(rng, n, x_shape), nc_operand(rng, n, y_shape)
    expected = oracle_nc_mul(x, y)
    # The second product reads every word pair back from the word table.
    assert_same(nc_mul(x, y), expected)
    assert_same(nc_mul(x, y), expected)


OPERATORS = ("mu", "gaussian", "rational")


def diff_op(rng, n, shape):
    """A DiffOp on phase space with no constant term; see OPERATORS."""
    space = phase_space(n)
    p = random_poly(rng, space, 2, terms=3, allow_i=False) + Poly.variable(space, "q1")
    if shape == "gaussian":
        p = p.scale(parse_coefficient("2 - i"))
    elif shape == "rational":
        p = p.scale(rng.choice(FACTORS))
    return DiffOp(Poly(space, {e: c for e, c in p.terms.items() if any(e)}))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(cases, st.sampled_from(OPERATORS))
def test_diff_op_matches_the_oracle(case, op_shape):
    """One operator on several targets in a row: after the first, its steps
    D/k come back from the step table."""
    rng, n, target, other = setup(case)
    op = diff_op(rng, n, op_shape)
    assert_same(op.apply_once(target), oracle_apply_once(op, target))
    for t in (target, other, operand(rng, n, "last"), operand(rng, n, "deferred")):
        assert_same(op.apply_exp(t), oracle_apply_exp(op, t))


def literal_exp_truncated(p, max_degree):
    """sum_k p^k / k! truncated at max_degree, each term divided by k as it is made."""
    out = term = Poly.one(p.space)
    k = 1
    while term:
        term = (term * p).truncate_degree(max_degree).scale_fraction(Fraction(1, k))
        out = out + term
        k += 1
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans(), st.integers(0, 6))
def test_exp_truncated_matches_the_literal_series(seed, n, rational, max_degree):
    rng = random.Random(seed)
    p = random_poly(rng, pair_space(n), 3, terms=3)
    p = p - Poly.constant(p.space, p.constant_term()) if p.constant_term() else p
    if rational:
        p = p.scale(rng.choice(FACTORS))
    assert_same(exp_truncated(p, max_degree), literal_exp_truncated(p, max_degree))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases)
def test_merge_slots_matches_the_oracle(case):
    """Merged exponents collide, and p - p(v, u) cancels to zero."""
    rng, n, f, g = setup(case)
    pair, width = pair_space(n), 2 * n
    p = random_poly(rng, pair, 3, terms=5).scale(f.constant_term() or FACTORS[0])
    swapped = slot_sum(p, pair, (1, "v", "u"))
    for q in (p, p + swapped, p - swapped):
        expected = accumulate(
            f.space, ((tuple(map(int.__add__, e[:width], e[width:])), c) for e, c in q.terms.items())
        )
        assert_same(merge_slots(q, f.space), expected)
    assert merge_slots(p - swapped, f.space).is_zero


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases)
def test_differentiate_matches_the_oracle(case):
    _, _, target, _ = setup(case)
    space = target.space
    for idx, name in enumerate(space.names):
        for order in range(4):
            orders = tuple(order if k == idx else 0 for k in range(len(space)))
            expected = oracle_apply_once(DiffOp(Poly.monomial(space, orders)), target)
            assert_same(target.differentiate(name, order), expected)
            assert_same(target.differentiate(idx, order), expected)
