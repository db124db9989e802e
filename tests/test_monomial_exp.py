"""Differential tests for `DiffOp.monomial_exp`, the exp pieces of products.

A product operator builds exp(D) on a coefficient-1 monomial from the image
of its prefix: exp(D)(x_i m) = x_i exp(D)m + D_i exp(D)m.  Here it is
compared with the D/k series of `DiffOp.apply_exp`, which it replaces for
exp pieces, on seeded operators with powers of i, mu and mu-denominators, on
monomials asked for in random order of a fresh and of a warm operator;
`star` and `bracket` are compared with the per-term oracles of conftest.py.
The rest pins the memo: one stored image per distinct prefix, a loop rather than a
recursion at high degree, and the constant-term check.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dressed_kernel, operand, oracle_bracket, oracle_star, random_coefficient
from moyal import poly as POLY, scalars
from moyal.errors import NonterminatingSeriesError
from moyal.poly import DiffOp, Poly, degree_guard, phase_space, sigma_space
from moyal.star import StarKernel, bracket, star

Q1, P1 = Poly.variable(phase_space(1), "q1"), Poly.variable(phase_space(1), "p1")


def random_operator(rng, n):
    """A DiffOp over sigma space with no constant term, terms of degree 1 to 3
    carrying mu, i and, for some, a mu-denominator."""
    space = sigma_space(n)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(space)
        for _ in range(rng.randint(1, 3)):
            exps[rng.randrange(len(space))] += 1
        coeff = random_coefficient(rng, mu_degree=2, allow_i=True)
        if rng.random() < 0.3:
            coeff = coeff / (scalars.MU + scalars.Coefficient.from_int(rng.randint(1, 3)))
        terms[tuple(exps)] = coeff
    return DiffOp.from_sigma_poly(Poly.from_terms(space, terms.items()))


def random_monomials(rng, width, count, max_degree=8):
    out = []
    for _ in range(count):
        exps = [0] * width
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(width)] += 1
        out.append(tuple(exps))
    return out


def series_terms(op, exps):
    return op.apply_exp(Poly.monomial(op.poly.space, exps)).terms


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_monomial_images_match_the_series(seed, n):
    rng = random.Random(seed)
    op = random_operator(rng, n)
    monomials = random_monomials(rng, 2 * n, 6)
    expected = {exps: series_terms(op, exps) for exps in monomials}
    # Fresh: each monomial on an operator that has built nothing yet.
    for exps in monomials:
        assert DiffOp(op.poly).monomial_exp(exps) == expected[exps]
    # Warm: one operator, the monomials asked for in random order, twice.
    warm = DiffOp(op.poly)
    for exps in rng.sample(monomials, len(monomials)) + monomials:
        assert warm.monomial_exp(exps) == expected[exps]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_products_match_the_oracles(seed, n):
    rng = random.Random(seed)
    kernel = dressed_kernel(rng, n)
    degree = 3 if n < 3 else 2
    pairs = [(operand(rng, n, degree), operand(rng, n, degree)) for _ in range(2)]
    for f, g in pairs + pairs[::-1]:
        assert star(f, g, kernel) == oracle_star(f, g, kernel)
        assert bracket(f, g, kernel) == oracle_bracket(f, g, kernel)


def test_a_deep_monomial_is_built_without_recursion():
    """The prefix chain of q1^2500 (x) p1 is 2,501 monomials long, more than
    the interpreter's default recursion limit."""
    kernel = StarKernel.moyal(1)
    with degree_guard(3000):
        f = Q1**2500
        assert star(f, P1, kernel) == oracle_star(f, P1, kernel)
        assert bracket(f, P1, kernel) == oracle_bracket(f, P1, kernel)


def prefixes(exps):
    """The nonconstant prefixes of a monomial: its last nonzero exponent
    lowered by one, repeatedly."""
    out = []
    while any(exps):
        out.append(exps)
        i = max(k for k, e in enumerate(exps) if e)
        exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
    return out


class RecordingMemo(dict):
    """An image memo that records every entry stored into it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.stored = []

    def __setitem__(self, exps, terms):
        self.stored.append(exps)
        super().__setitem__(exps, terms)


def test_each_prefix_is_built_once():
    kernel = dressed_kernel(random.Random(9500), 1)
    op = DiffOp.from_sigma_poly(kernel.exponent())
    first, second = (2, 1, 0, 3), (2, 1, 1, 1)
    every = prefixes(first) + prefixes(second)
    expected = {exps: series_terms(op, exps) for exps in every}
    # The constant monomial sets the memo up and stores nothing in it.
    assert op.monomial_exp((0, 0, 0, 0)) == {(0, 0, 0, 0): scalars.ONE}
    assert op._images == {}
    memo = op._images = RecordingMemo()
    assert op.monomial_exp(first) == expected[first]
    assert memo.stored == prefixes(first)[::-1] and len(memo) == 6
    # (2, 1, 1, 1) shares the prefixes from (2, 1, 0, 0) down with the first
    # monomial; only (2, 1, 1, 0) and (2, 1, 1, 1) are new.
    del memo.stored[:]
    assert op.monomial_exp(second) == expected[second]
    new = set(prefixes(second)) - set(prefixes(first))
    assert new == {(2, 1, 1, 1), (2, 1, 1, 0)}
    assert memo.stored == [(2, 1, 1, 0), (2, 1, 1, 1)] and len(memo) == 8
    # Every prefix of either, again: all from the memo.
    del memo.stored[:]
    for exps in every:
        assert op.monomial_exp(exps) == expected[exps]
    assert memo.stored == [] and len(memo) == 8


def test_a_cancelled_term_leaves_the_image():
    """exp(a d/dx + b d/dy - ab d/dx d/dy)(xy) = xy + bx + ay + (ab - ab): the
    image of xy adds D_y = b - ab d/dx to the prefix image x + a, and its
    constant term cancels inside that step."""
    space = sigma_space(1)
    a = scalars.I / (scalars.MU + scalars.Coefficient.from_int(1))
    b = scalars.MU.scale_int(3)
    op = DiffOp(Poly(space, {(1, 0): a, (0, 1): b, (1, 1): -(a * b)}))
    want = {(1, 1): scalars.ONE, (1, 0): b, (0, 1): a}
    assert series_terms(op, (1, 1)) == want
    assert op.monomial_exp((1, 1)) == want


def test_an_operator_applied_once_builds_no_memo(monkeypatch):
    op = random_operator(random.Random(9510), 1)

    def no_derivative(*args):
        raise AssertionError("a derivative of the operator was built")

    monkeypatch.setattr(Poly, "differentiate", no_derivative)
    target = Poly.monomial(op.poly.space, (3, 2))
    op.apply_once(target)
    op.apply_exp(target)
    assert op._images is None and op._derivatives is None


def test_a_small_memo_gives_the_same_images(monkeypatch):
    monkeypatch.setattr(POLY, "IMAGE_MEMO_SIZE", 3)
    op = random_operator(random.Random(9520), 2)
    for exps in random_monomials(random.Random(9521), 4, 12):
        assert op.monomial_exp(exps) == series_terms(op, exps)
        assert len(op._images) <= 3


@pytest.mark.parametrize("constant", ["1", "mu", "i/(mu + 2)"])
def test_a_constant_term_is_rejected_on_every_call(constant):
    op = random_operator(random.Random(9530), 1)
    c = Poly.constant(op.poly.space, scalars.Coefficient.from_int(1))
    if constant == "mu":
        c = c.scale(scalars.MU)
    elif constant == "i/(mu + 2)":
        c = c.scale(scalars.I / (scalars.MU + scalars.Coefficient.from_int(2)))
    shifted = DiffOp(op.poly + c)
    for exps in itertools.islice(itertools.cycle([(0, 0), (1, 0), (2, 3)]), 4):
        with pytest.raises(NonterminatingSeriesError):
            shifted.monomial_exp(exps)
