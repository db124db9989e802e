"""Differential tests for deferred division.

`Poly.over` returns a deferred value when the numerator is polynomial in mu:
it holds (P, D) and divides on first read, and the next stage of a chain
splits it again without a gcd.  Each chain here is computed as the library
computes it and again with every intermediate value forced canonical first
(`canonical`, which copies the terms into an ordinary `Poly`); the two must
agree in their terms and their printed form.  The operands carry Gaussian,
repeated and partly cancelling mu-denominators, for n = 1 and 2.
"""

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_gauge_chi, random_poly
from moyal import scalars
from moyal.expressions import parse_coefficient
from moyal.linalg import Matrix
from moyal.operators import NCPoly, nc_mul, weyl_quantize, weyl_symbol
from moyal.poly import Poly, phase_space
from moyal.scalars import MU_POLY_ONE, MU_POLY_ZERO, MuPoly
from moyal.star import StarKernel, bracket, star, u_map

MAX_DEGREE = {1: 3, 2: 2}
# Gaussian, repeated and partly cancelling: (mu + 1) in a numerator meets
# (mu + 1)^2 in a denominator, and (mu - 1) meets (mu - 1)(mu + i).
FACTORS = [
    parse_coefficient(text)
    for text in (
        "1/(mu + i)",
        "1/(mu + 1)^2",
        "(mu + 1)/(mu - 1)",
        "(mu - 1)/((mu + 1)*(mu^2 + 1))",
        "1/((mu - 1)*(mu + i))",
        "(2 + i)/mu",
    )
]

cases = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans())


def canonical(x):
    """x with its terms read and copied into an ordinary value."""
    if isinstance(x, NCPoly):
        return NCPoly(x.n, dict(x.terms))
    return Poly(x.space, dict(x.terms))


def operand(rng, n):
    """Gaussian mu-polynomial terms, two in three times a factor from FACTORS."""
    p = random_poly(rng, phase_space(n), MAX_DEGREE[n], terms=4)
    return Poly(
        p.space,
        {e: c if k % 3 == 2 else c * rng.choice(FACTORS) for k, (e, c) in enumerate(p.terms.items())},
    )


def setup(case):
    """A dressed kernel (chi, mu*J) and three operands; with rational_chi one
    term of chi is over (mu + 2), so the pieces bring denominators of their own."""
    seed, n, rational_chi = case
    rng = random.Random(seed)
    chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1)
    if rational_chi:
        exps, coeff = next(iter(chi.terms.items()))
        chi = chi + Poly.monomial(chi.space, exps, coeff * parse_coefficient("1/(mu + 2)"))
    kernel = StarKernel(n, chi, Matrix.canonical_symplectic(n, scalars.MU))
    return kernel, operand(rng, n), operand(rng, n), operand(rng, n)


def assert_same(got, expected):
    assert got.terms == expected.terms
    assert str(got) == str(expected)


def check_value(x):
    """The queries a deferred value answers from (P, D) agree with its terms."""
    degree, truth, constant = x.total_degree(), bool(x), x.constant_term()
    zero = x.is_zero
    p, den = x.split_denominator()
    assert all(c.den is MU_POLY_ONE for c in p.terms.values())
    assert den.monic() == den
    copy = canonical(x)
    assert (degree, truth, constant, zero) == (
        copy.total_degree(),
        bool(copy),
        copy.constant_term(),
        copy.is_zero,
    )
    assert x == copy and copy == x
    assert hash(x) == hash(copy)
    assert p.over(den) == copy
    return x


def weyl_route(f, g, chi, stage):
    x = stage(weyl_quantize(stage(u_map(f, chi))))
    y = stage(weyl_quantize(stage(u_map(g, chi))))
    return weyl_symbol(stage(nc_mul(x, y)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cases)
def test_star_then_u_map(case):
    kernel, f, g, _ = setup(case)
    chi, product = kernel.chi, star(f, g, kernel)
    # Pieces of a rational chi may bring denominators; then it is divided at once.
    assert product.is_deferred or case[2]
    assert_same(u_map(check_value(product), chi), u_map(canonical(star(f, g, kernel)), chi))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(cases)
def test_weyl_route(case):
    kernel, f, g, _ = setup(case)
    deferred = weyl_route(f, g, kernel.chi, lambda x: x)
    assert_same(deferred, weyl_route(f, g, kernel.chi, canonical))
    assert_same(deferred, u_map(star(f, g, kernel), kernel.chi))
    check_value(deferred)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases, st.integers(0, 8))
def test_product_chains(case, max_degree):
    _, f, g, h = setup(case)
    fg = f * g
    assert_same((fg * h).truncate_degree(max_degree), (canonical(fg) * h).truncate_degree(max_degree))
    assert_same(h * fg, h * canonical(fg))
    assert_same(fg * (g * h), canonical(fg) * canonical(g * h))
    assert_same(check_value(fg * fg), canonical(fg) * canonical(fg))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(cases)
def test_bracket_of_a_bracket(case):
    kernel, f, g, h = setup(case)
    inner = bracket(f, g, kernel)
    assert_same(bracket(inner, h, kernel), bracket(canonical(inner), h, kernel))
    assert_same(bracket(h, inner, kernel), bracket(h, canonical(inner), kernel))
    assert_same(star(inner, inner, kernel), star(canonical(inner), canonical(inner), kernel))


def deferred_product():
    f = operand(random.Random(7), 1)
    x = f * f
    assert x.is_deferred
    return x


def test_splitting_a_deferred_value_runs_no_gcd(monkeypatch):
    x = deferred_product()
    calls = []
    gcd, cleared = MuPoly.gcd, scalars.Coefficient.cleared
    monkeypatch.setattr(MuPoly, "gcd", staticmethod(lambda a, b: calls.append("gcd") or gcd(a, b)))
    monkeypatch.setattr(scalars.Coefficient, "cleared", lambda c, d: calls.append("cleared") or cleared(c, d))
    p, den = x.split_denominator()
    assert not p.is_deferred
    assert x.over(den).split_denominator() == (p, den * den)
    assert calls == []


def test_over_zero_raises_at_the_call():
    x = deferred_product()
    p, den = x.split_denominator()
    for value in (x, p, Poly.zero(x.space)):
        with pytest.raises(ZeroDivisionError):
            value.over(MU_POLY_ZERO)


def test_a_non_monic_denominator_divides_at_once():
    x = deferred_product()
    p, den = x.split_denominator()
    doubled = den * MuPoly((2,))
    assert not p.over(doubled).is_deferred
    assert p.over(doubled) == x.scale(parse_coefficient("1/2"))


def test_deferred_values_pickle_as_ordinary_ones():
    x = deferred_product()
    copy = pickle.loads(pickle.dumps(x))
    assert type(copy) is Poly
    assert copy == x


def test_the_respaced_value_stays_deferred():
    x = deferred_product()
    op = weyl_quantize(x)
    assert op.poly.is_deferred
    assert op == canonical(op)
    assert weyl_symbol(op) == x


def test_concurrent_first_reads_agree():
    expected = dict(canonical(deferred_product()).terms)
    values = [deferred_product() for _ in range(40)]
    errors = []

    def read():
        try:
            for x in values:
                if x.terms != expected:
                    errors.append(x)
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
