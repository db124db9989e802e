"""Differential tests for the one-pair case of `poly.bilinear`.

When both operands hold one term and neither is deferred, the walk reads the
pair's piece once: a piece that is empty, or whose scale cf * cg is ONE,
is returned as it is (an operator memo's Poly itself, or a Poly over a
shared table's dict), a scale polynomial in mu returns the piece scaled,
and a scale with a mu-denominator runs on the numerators.  Each caller of
the walk (`Poly.__mul__`, `star`, `bracket`, `BiDiff.apply`, `nc_mul`,
`DiffOp.apply_once` and `Poly.differentiate`) is compared on one-term
operands with its per-term oracle in conftest.py, for unit,
Gaussian, polynomial-in-mu and mu-denominator scales (a unit scale also as
i * -i and 1/mu * mu, equal to ONE but not ONE itself), for deferred
one-term operands and for pairs whose piece is empty.  A memo hit returns
the operator's memo Poly itself, a scaled pair a Poly of its own, no call
writes into a memo, and `star`/`bracket` on a hit equal the result from a
fresh kernel object; a second pass of unit pairs constructs no Poly.
"""

import itertools
import random

import pytest

from conftest import (
    dressed_kernel,
    oracle_apply,
    oracle_apply_once,
    oracle_bracket,
    oracle_mul,
    oracle_nc_mul,
    oracle_star,
    random_poly,
)
from moyal import scalars
from moyal.expressions import parse_coefficient
from moyal.operators import NCPoly, nc_mul
from moyal.poly import DiffOp, Poly, pair_space, phase_space
from moyal.star import BiDiff, StarKernel, bracket, star

ONE, I, MU = scalars.ONE, scalars.I, scalars.MU
# (cf, cg) per kind of scale cf * cg.
SCALES = {
    "unit": [(ONE, ONE)],
    "unit-not-ONE": [(I, -I), (MU.inverse(), MU)],
    "gaussian": [(parse_coefficient("2 - i"), ONE), (ONE, parse_coefficient("-3")), (I, parse_coefficient("1 + i"))],
    "mu-polynomial": [(MU + ONE, ONE), (ONE, parse_coefficient("i*mu^2 - 2")), (MU, MU)],
    "mu-denominator": [
        (parse_coefficient("1/(mu^2 + 2)"), ONE),
        (parse_coefficient("mu - i"), parse_coefficient("1/(mu + 3)")),
        (MU.inverse(), MU + ONE),
    ],
}
SHAPES = sorted(SCALES) + ["deferred"]
SEEDS = range(4)
MAX_DEGREE = 3


def exponents(rng, n, degree=MAX_DEGREE):
    exps = [0] * (2 * n)
    for _ in range(rng.randint(0, degree)):
        exps[rng.randrange(2 * n)] += 1
    return tuple(exps)


def one_term_pair(rng, n, shape):
    """Two one-term phase-space operands whose coefficients make a scale of
    the given kind, or (shape "deferred") two deferred one-term operands."""
    space = phase_space(n)
    if shape == "deferred":
        pair = []
        for den in ("mu^2 + 2", "mu + 1"):
            coeff = rng.choice([ONE, MU, parse_coefficient("2*i*mu - 1")])
            x = Poly.monomial(space, exponents(rng, n), coeff).over(parse_coefficient(den).num)
            assert x.is_deferred and len(x.terms) == 1
            pair.append(x)
        return pair
    cf, cg = rng.choice(SCALES[shape])
    f, g = Poly.monomial(space, exponents(rng, n), cf), Poly.monomial(space, exponents(rng, n), cg)
    if shape.startswith("unit"):
        assert cf * cg == ONE and (cf * cg is ONE) == (shape == "unit")
    elif shape == "mu-denominator":
        assert (cf * cg).den != scalars.MU_POLY_ONE
    else:
        assert (cf * cg).den == scalars.MU_POLY_ONE
    return f, g


def assert_same(got, expected):
    assert got.terms == expected.terms
    assert str(got) == str(expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_products_of_one_term_operands_match_the_oracles(shape, n, seed):
    rng = random.Random(f"one-pair-{shape}-{n}-{seed}")
    f, g = one_term_pair(rng, n, shape)
    kernel = dressed_kernel(rng, n)
    assert_same(f * g, oracle_mul(f, g))
    assert_same(star(f, g, kernel), oracle_star(f, g, kernel))
    assert_same(bracket(f, g, kernel), oracle_bracket(f, g, kernel))
    # The second calls are memo hits.
    assert_same(star(f, g, kernel), oracle_star(f, g, kernel))
    assert_same(bracket(f, g, kernel), oracle_bracket(f, g, kernel))
    a = random_poly(rng, pair_space(n), 2, terms=3)
    assert_same(BiDiff(a).apply(f, g), oracle_apply(a, f, g))
    x, y = NCPoly(n, dict(f.terms)), NCPoly(n, dict(g.terms))
    assert_same(nc_mul(x, y).poly, oracle_nc_mul(x, y).poly)
    # A one-term operator on a one-term target.
    op = DiffOp(Poly.monomial(f.space, exponents(rng, n, 2), next(iter(f.terms.values()))))
    assert_same(op.apply_once(g), oracle_apply_once(op, g))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_empty_pieces_give_zero(shape, n):
    rng = random.Random(f"one-pair-empty-{shape}-{n}")
    f, g = one_term_pair(rng, n, shape)
    space = f.space
    # A derivative of higher order than the monomial has.
    (eg,) = g.terms
    orders = tuple(e + 1 for e in eg)
    op = DiffOp(Poly.monomial(space, orders, next(iter(f.terms.values()))))
    for got in (op.apply_once(g), g.differentiate(0, eg[0] + 1)):
        assert got.is_zero
        assert_same(got, oracle_apply_once(op, g))
    # A constant commutes with everything: its commutator pieces are empty.
    kernel = dressed_kernel(rng, n)
    constant = Poly.constant(space, next(iter(f.terms.values())))
    for x, y in ((constant, g), (g, constant)):
        assert bracket(x, y, kernel).is_zero
        assert_same(bracket(x, y, kernel), oracle_bracket(x, y, kernel))
    # A kernel with no term of u-degree 0 kills the pair of constants.
    a = Poly.variable(pair_space(n), "u1")
    assert BiDiff(a).apply(constant, constant).is_zero


def test_a_memo_hit_returns_the_memo_poly():
    """A one-term unit pair returns the operator's memo Poly itself, for
    `star` and for `bracket`, empty commutator pieces included; a second call
    returns the same object, a scaled operand a new Poly, and no memo Poly's
    terms change."""
    rng = random.Random("one-pair-memo")
    snapshots = {}
    for n in (1, 2):
        kernel = dressed_kernel(rng, n)
        operator = kernel.operator
        space = phase_space(n)
        zero = (0,) * (2 * n)
        pairs = [(exponents(rng, n), exponents(rng, n)) for _ in range(6)]
        # Pairs whose commutator piece is empty: a monomial with itself or with 1.
        pairs += [(pairs[0][0], pairs[0][0]), (zero, pairs[1][1]), (pairs[2][0], zero)]
        for ef, eg in pairs:
            f, g = Poly.monomial(space, ef), Poly.monomial(space, eg)
            product, commutator = star(f, g, kernel), bracket(f, g, kernel)
            exp_memo, commutator_memo = operator._exp_piece(ef, eg), operator._commutator_piece(ef, eg)
            for memo in (exp_memo, commutator_memo):
                snapshots.setdefault(id(memo), (memo, dict(memo.terms)))
            assert product is exp_memo and commutator is commutator_memo
            assert star(f, g, kernel) is exp_memo and bracket(f, g, kernel) is commutator_memo
            if ef == eg or zero in (ef, eg):
                assert commutator.is_zero
            # A scaled pair gets a Poly of its own.
            for c in (MU + ONE, parse_coefficient("1/(mu + 2)")):
                scaled = star(f.scale(c), g, kernel)
                assert scaled is not exp_memo and scaled.terms is not exp_memo.terms
                assert scaled == product.scale(c)
            # The same values from an operator with cold memos.
            fresh = StarKernel(kernel.n, kernel.chi, kernel.m)
            assert fresh.operator is not operator
            assert star(f, g, fresh) == product
            assert bracket(f, g, fresh) == commutator
    # No call wrote into a memo Poly.
    assert all(memo.terms == terms for memo, terms in snapshots.values())


def test_a_second_pass_of_unit_pairs_builds_no_poly(monkeypatch):
    """`star` and `bracket` over every pair of coefficient-1 monomials of
    degree <= MAX_DEGREE, twice under one dressed kernel: the second pass
    returns memo Polys only, so it constructs no `Poly` and fills no total
    degree."""
    counts = {"polys": 0, "degrees": 0}
    init, total_degree = Poly.__init__, Poly.total_degree

    def counting_init(self, *args):
        counts["polys"] += 1
        init(self, *args)

    def counting_total_degree(self):
        counts["degrees"] += self._degree is None
        return total_degree(self)

    rng = random.Random("one-pair-second-pass")
    for n in (1, 2):
        kernel = dressed_kernel(rng, n)
        space = phase_space(n)
        monomials = [Poly.monomial(space, e) for e in itertools.product(range(MAX_DEGREE + 1), repeat=2 * n)
                     if sum(e) <= MAX_DEGREE]
        first = [(star(f, g, kernel), bracket(f, g, kernel)) for f in monomials for g in monomials]
        monkeypatch.setattr(Poly, "__init__", counting_init)
        monkeypatch.setattr(Poly, "total_degree", counting_total_degree)
        second = [(star(f, g, kernel), bracket(f, g, kernel)) for f in monomials for g in monomials]
        monkeypatch.undo()
        assert counts == {"polys": 0, "degrees": 0}
        assert all(x is y for pair, again in zip(first, second) for x, y in zip(pair, again))
