"""Differential tests: moyal.scalars against the Fraction-based oracle.

Random operation sequences run on both implementations from the same
inputs; every intermediate value must render identically and agree on
equality, mu-valuation, evaluation at mu = 0 (or its pole), inverse and
the split by mu-power.  The integer representation's invariants are
checked on every value.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle_scalars as old
from moyal import scalars as new
from moyal.errors import PoleAtMuZeroError

# Operands above this mu-degree (numerator plus denominator) are not
# multiplied or raised to powers again, so sequences stay small.
MAX_DEGREE = 8


def build(impl, num, den):
    """A coefficient from numerator/denominator lists of (re, im) Fractions."""

    def poly(seq):
        return impl.MuPoly.from_seq(impl.GaussRational(re, im) for re, im in seq)

    return impl.Coefficient.make(poly(num), poly(den))


def check_invariants(c):
    for p in (c.num, c.den):
        assert p.d > 0
        assert math.gcd(p.d, *p.re, *p.im) == 1
        assert not p.re or p.re[-1] or p.im[-1]
        assert p.im == () or (len(p.im) == len(p.re) and any(p.im))
    assert c.den.is_one == (c.den is new.MU_POLY_ONE)
    if c.den.re:
        lr, li, d = c.den.re[-1], (c.den.im[-1] if c.den.im else 0), c.den.d
        assert (lr, li) == (d, 0)


def observe(c):
    """Everything the two implementations must agree on for one value."""
    try:
        at_zero = c.eval_at_mu_zero()
        at_zero = (at_zero.re, at_zero.im)
    except PoleAtMuZeroError:
        at_zero = "pole"
    inverse = str(c.inverse()) if c else None
    parts = c.mu_monomials() if c.den.is_one else {}
    parts = {k: (g.re, g.im) for k, g in parts.items()}
    return str(c), c.mu_valuation(), at_zero, inverse, parts


def degree(c):
    return c.num.degree + c.den.degree


class Pair:
    """One value in both implementations."""

    def __init__(self, a, b):
        self.new, self.old = a, b
        check_invariants(a)
        assert observe(a) == observe(b)


def apply(op, x, y, k, q):
    """Apply op to Pair operands; returns a Pair, or None when skipped."""
    if op in ("*", "**") and max(degree(x.new), degree(y.new)) > MAX_DEGREE:
        return None
    results = []
    for a, b in ((x.new, y.new), (x.old, y.old)):
        try:
            if op == "+":
                results.append(a + b)
            elif op == "-":
                results.append(a - b)
            elif op == "*":
                results.append(a * b)
            elif op == "/":
                results.append(a / b)
            elif op == "**":
                results.append(a**k)
            elif op == "scale_int":
                results.append(a.scale_int(k))
            else:
                results.append(a.scale_fraction(q))
        except ZeroDivisionError:
            results.append(ZeroDivisionError)
    if results[0] is ZeroDivisionError or results[1] is ZeroDivisionError:
        assert results == [ZeroDivisionError, ZeroDivisionError]
        return None
    return Pair(*results)


def run_program(values, program):
    pool = [Pair(build(new, num, den), build(old, num, den)) for num, den in values]
    for op, i, j, k, q in program:
        out = apply(op, pool[i % len(pool)], pool[j % len(pool)], k, q)
        if out is not None:
            pool.append(out)
    for x in pool:
        for y in pool:
            assert (x.new == y.new) == (x.old == y.old)
            if x.new == y.new:
                assert hash(x.new) == hash(y.new)


small = st.integers(min_value=-4, max_value=4)
fractions = st.builds(Fraction, small, st.sampled_from([1, 1, 1, 2, 3, 4]))
real = st.tuples(fractions, st.just(Fraction(0)))
gauss = st.tuples(fractions, fractions)


def poly_mul(a, b):
    """Product of two coefficient lists of (re, im) Fractions."""
    out = [(Fraction(0), Fraction(0))] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            cr, ci = out[i + j]
            out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return out


@st.composite
def values(draw):
    """A numerator/denominator pair: Gaussian, rational-denominator, rational
    function, or a rational function with a common factor to cancel."""
    kind = draw(st.sampled_from(["gauss", "rational", "laurent", "function", "cancel"]))
    entry = gauss if draw(st.booleans()) else real
    num = draw(st.lists(entry, min_size=1, max_size=4))
    one = [(Fraction(1), Fraction(0))]
    if kind == "gauss":
        num = [(Fraction(re.numerator), Fraction(im.numerator)) for re, im in num]
        return num, one
    if kind == "rational":
        return num, [draw(entry.filter(any))]
    if kind == "laurent":
        return num, [(Fraction(0), Fraction(0))] * draw(st.integers(1, 3)) + [
            draw(entry.filter(any))
        ]
    den = draw(st.lists(entry, min_size=2, max_size=4).filter(lambda d: any(d[-1])))
    if kind == "cancel":
        # A factor whose monic form has non-integral coefficients (e.g. mu + 1/2).
        common = draw(st.lists(gauss, min_size=2, max_size=3).filter(lambda d: any(d[-1])))
        return poly_mul(num, common), poly_mul(den, common)
    return num, den


ops = st.tuples(
    st.sampled_from(["+", "-", "*", "/", "**", "scale_int", "scale_fraction"]),
    st.integers(0, 20),
    st.integers(0, 20),
    st.integers(-2, 3),
    fractions,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(values(), min_size=1, max_size=4), st.lists(ops, max_size=8))
def test_random_sequences_match_oracle(start, program):
    run_program(start, program)


def _random_value(rng):
    def entry():
        den = rng.choice((1, 1, 1, 2, 3))
        re = Fraction(rng.randint(-5, 5), den)
        im = Fraction(rng.randint(-3, 3), den) if rng.random() < 0.4 else Fraction(0)
        return re, im

    num = [entry() for _ in range(rng.randint(1, 3))]
    shape = rng.choice(("one", "const", "laurent", "function"))
    if shape == "one":
        return num, [(Fraction(1), Fraction(0))]
    if shape == "laurent":
        lead = (Fraction(rng.choice((1, 2, -3))), Fraction(0))
        return num, [(Fraction(0), Fraction(0))] * rng.randint(1, 2) + [lead]
    den = [entry() for _ in range(1 if shape == "const" else rng.randint(2, 3))]
    if not any(den[-1]):
        den[-1] = (Fraction(1), Fraction(1))
    return num, den


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_bulk_sequences_match_oracle(seed):
    rng = random.Random(seed)
    names = ["+", "-", "*", "/", "**", "scale_int", "scale_fraction"]
    for _ in range(40):
        start = [_random_value(rng) for _ in range(3)]
        program = [
            (rng.choice(names), rng.randrange(20), rng.randrange(20), rng.randint(-2, 3),
             Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
            for _ in range(25)
        ]
        run_program(start, program)


def test_gaussian_gcd_stays_small():
    # A degree-16 gcd over Z[i]: content-only pseudo-remainders blow up here.
    rng = random.Random(5)

    def gauss_seq(deg):
        seq = [(Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))) for _ in range(deg)]
        return seq + [(Fraction(1), Fraction(2))]

    common, f, g = gauss_seq(4), gauss_seq(12), gauss_seq(12)
    one = [(Fraction(1), Fraction(0))]
    c = {impl: build(impl, common, one) for impl in (new, old)}
    a = {impl: c[impl] * build(impl, f, one) for impl in (new, old)}
    b = {impl: c[impl] * build(impl, g, one) for impl in (new, old)}
    assert new.MuPoly.gcd(a[new].num, b[new].num) == c[new].num.monic()
    quotient = a[new] / b[new]
    assert quotient.num.degree == 12 and quotient.den.degree == 12
    assert str(quotient) == str(a[old] / b[old])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values())
def test_multiplying_by_one_matches_oracle(value):
    x = {impl: build(impl, *value) for impl in (new, old)}
    products = [
        (x[new] * new.ONE, x[old] * old.ONE),
        (new.ONE * x[new], old.ONE * x[old]),
    ]
    for got, want in products:
        check_invariants(got)
        assert got == x[new] and hash(got) == hash(x[new])
        assert str(got) == str(want)
        assert observe(got) == observe(want)
