"""Differential tests for the denominator split in the polynomial loops.

`star`, `bracket`, `BiDiff.apply`, `DiffOp.apply_once`/`apply_exp` (so
`u_map`, `weyl_quantize` and `weyl_symbol`), `Poly.mul_truncated` and
`nc_mul` clear the mu-denominators of their operands once (`split_denominator`),
run on the numerators and divide once per output term (`over`).  Here each is
compared with the per-term accumulation oracles in conftest and, where one
exists, with the operator route of operators.py.  The operands mix
denominators that share a factor, 1/mu, Gaussian coefficients and
denominator-free terms; the kernels have polynomial or rational-function chi.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_apply,
    oracle_bracket,
    oracle_mul,
    oracle_nc_mul,
    oracle_star,
    oracle_u_map,
    oracle_weyl_quantize,
    oracle_weyl_symbol,
    random_gauge_chi,
    random_poly,
)
from moyal import scalars
from moyal.expressions import parse_coefficient
from moyal.lie import apply_bracket_kernel, bracket_kernel_of
from moyal.linalg import Matrix
from moyal.operators import NCPoly, nc_mul, weyl_quantize, weyl_symbol
from moyal.poly import Poly, phase_space
from moyal.scalars import MU_POLY_ONE, Coefficient, MuPoly
from moyal.star import StarKernel, bracket, star, u_map

# Operand degree per dimension keeps one example well under a second.
MAX_DEGREE = {1: 3, 2: 2}
INVERSES = [
    parse_coefficient(f"1/({d})")
    for d in ("mu + 1", "(mu + 1)*(mu - 1)", "mu", "mu^2 + 1", "(1+i)*mu + 2")
]

cases = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans())


def rational_operand(rng, n, max_degree, terms=4):
    """Gaussian mu-polynomial terms, two in three over a denominator from INVERSES."""
    p = random_poly(rng, phase_space(n), max_degree, terms=terms)
    return Poly(
        p.space,
        {
            e: c if k % 3 == 2 else c * rng.choice(INVERSES)
            for k, (e, c) in enumerate(p.terms.items())
        },
    )


def kernel_of(rng, n, rational_chi):
    """(chi, mu*J); with rational_chi one term of chi is over 1/(mu + 2)."""
    chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1)
    if rational_chi:
        exps, coeff = next(iter(chi.terms.items()))
        chi = chi + Poly.monomial(chi.space, exps, coeff * parse_coefficient("1/(mu + 2)"))
    return StarKernel(n, chi, Matrix.canonical_symplectic(n, scalars.MU))


def setup(case):
    seed, n, rational_chi = case
    rng = random.Random(seed)
    kernel = kernel_of(rng, n, rational_chi)
    f, g = (rational_operand(rng, n, MAX_DEGREE[n]) for _ in range(2))
    return kernel, f, g


def quantize(f, chi):
    """The operator of f under the ordering of the kernel (chi, mu*J)."""
    return weyl_quantize(u_map(f, chi))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases)
def test_star_matches_the_oracle_and_the_operator_route(case):
    kernel, f, g = setup(case)
    got = star(f, g, kernel)
    assert got == oracle_star(f, g, kernel)
    chi = kernel.chi
    assert quantize(got, chi) == nc_mul(quantize(f, chi), quantize(g, chi))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(cases)
def test_bracket_matches_the_oracle_and_the_operator_route(case):
    kernel, f, g = setup(case)
    got = bracket(f, g, kernel)
    assert got == oracle_bracket(f, g, kernel)
    of, og = quantize(f, kernel.chi), quantize(g, kernel.chi)
    commutator = (nc_mul(of, og) - nc_mul(og, of)).scale(scalars.HALF_INV_MU)
    assert quantize(got, kernel.chi) == commutator


@settings(max_examples=15, deadline=None, derandomize=True)
@given(cases)
def test_bracket_kernel_application_matches_the_oracle(case):
    kernel, f, g = setup(case)
    n = kernel.n
    raw = bracket_kernel_of(kernel, truncation_degree=2 * MAX_DEGREE[n])
    got = apply_bracket_kernel(raw, f, g)
    assert got == oracle_apply(raw.a, f, g)
    assert got == bracket(f, g, kernel)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases)
def test_u_map_and_the_weyl_maps_match_the_oracles(case):
    kernel, f, g = setup(case)
    chi = kernel.chi
    mapped = u_map(f, chi)
    assert mapped == oracle_u_map(f, chi)
    assert u_map(mapped, -chi) == f
    op = weyl_quantize(g)
    assert op == oracle_weyl_quantize(g)
    assert weyl_symbol(op) == oracle_weyl_symbol(op) == g


@settings(max_examples=25, deadline=None, derandomize=True)
@given(cases)
def test_nc_mul_matches_the_oracle(case):
    _, f, g = setup(case)
    n = len(f.space) // 2
    x, y = NCPoly(n, dict(f.terms)), NCPoly(n, dict(g.terms))
    assert nc_mul(x, y) == oracle_nc_mul(x, y)
    assert weyl_symbol(nc_mul(weyl_quantize(f), weyl_quantize(g))) == star(
        f, g, StarKernel.moyal(n)
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases, st.integers(0, 8))
def test_poly_product_matches_the_oracle(case, max_degree):
    _, f, g = setup(case)
    product = f * g
    assert product == oracle_mul(f, g)
    assert f.mul_truncated(g, max_degree) == product.truncate_degree(max_degree)


# -- the helpers -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_split_denominator_clears_the_least_common_denominator(seed):
    rng = random.Random(seed)
    p = rational_operand(rng, 1 + seed % 2, 4, terms=6)
    cleared, den = p.split_denominator()
    assert cleared.over(den) == p
    assert den == den.monic() and den.degree > 0
    assert all(c.den is MU_POLY_ONE for c in cleared.terms.values())
    # Least: no factor of den divides every numerator.
    numerators = (c.num for c in cleared.terms.values())
    assert functools.reduce(MuPoly.gcd, numerators, den).degree == 0


def test_split_denominator_takes_shared_factors_once():
    space = phase_space(1)
    p = Poly(space, {(1, 0): INVERSES[0], (0, 1): INVERSES[1], (1, 1): INVERSES[2]})
    cleared, den = p.split_denominator()
    assert den == parse_coefficient("mu*(mu + 1)*(mu - 1)").num
    numerators = {(1, 0): "mu^2 - mu", (0, 1): "mu", (1, 1): "mu^2 - 1"}
    assert cleared == Poly(space, {e: parse_coefficient(c) for e, c in numerators.items()})


def test_split_denominator_returns_a_polynomial_without_denominators_itself():
    rng = random.Random(7)
    for p in (random_poly(rng, phase_space(2), 4, terms=5), Poly.zero(phase_space(1))):
        cleared, den = p.split_denominator()
        assert cleared is p and den is MU_POLY_ONE
        assert p.over(den) is p


def test_over_keeps_the_denominators_of_the_terms():
    p = rational_operand(random.Random(8), 1, 4, terms=6)
    den = scalars.MU_POLY_MU * parse_coefficient("mu + 3").num
    assert p.over(den) == p.scale(Coefficient.make(MU_POLY_ONE, den))


def test_star_divides_once_per_output_term(monkeypatch):
    rng = random.Random(11)
    space = phase_space(1)
    scales = [Coefficient.from_int(rng.choice((1, -2, 3))) for _ in range(6)]
    f = Poly(space, {(k, 5 - k): c * INVERSES[k % 2] for k, c in enumerate(scales)})
    g = Poly(space, {(5 - k, k): c * INVERSES[2 + k % 2] for k, c in enumerate(scales)})
    kernel = StarKernel.standard(1)
    expected = oracle_star(f, g, kernel)
    makes = []
    make = Coefficient.make
    monkeypatch.setattr(Coefficient, "make", staticmethod(lambda *a: makes.append(a) or make(*a)))
    got = star(f, g, kernel)
    assert got == expected
    # One lcm step per operand: each has two distinct denominators.
    lcm_steps = 2
    assert len(got.terms) <= len(makes) <= len(got.terms) + lcm_steps
