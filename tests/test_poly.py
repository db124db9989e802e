"""Sparse polynomial arithmetic, differentiation, and exponential operators."""

import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_mul, random_poly, substitute
from moyal import scalars
from moyal.errors import (
    DegreeGuardError,
    NonterminatingSeriesError,
    SpaceMismatchError,
)
from moyal.expressions import parse_poly
from moyal.poly import (
    DiffOp,
    Poly,
    degree_guard,
    divide_exact,
    get_degree_guard,
    lift,
    lifted_mul,
    pair_space,
    phase_space,
    set_degree_guard,
    sigma_space,
    unlift,
)
from moyal.star import on_slots, slot_degrees, u_map

SP = phase_space(1)
Q = Poly.variable(SP, "q1")
P = Poly.variable(SP, "p1")
MU, ONE = scalars.MU, scalars.ONE


def test_arith_examples():
    assert (Q + P) + (Q - P) == Q.scale(scalars.Coefficient.from_int(2))
    assert Q * P == parse_poly("q1*p1", SP)
    assert Q.scale(MU.inverse()) * P.scale(MU) == Q * P


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(25):
        a = random_poly(rng, SP, 4)
        b = random_poly(rng, SP, 4)
        c = random_poly(rng, SP, 4)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Poly.zero(SP) == a
        assert a * Poly.one(SP) == a


def test_space_mismatch_errors():
    other = phase_space(2)
    with pytest.raises(SpaceMismatchError):
        Q + Poly.variable(other, "q1")
    with pytest.raises(SpaceMismatchError):
        Q * Poly.variable(other, "q1")
    with pytest.raises(SpaceMismatchError):
        Q.differentiate("q7")


def test_differentiate_examples():
    assert (Q**2 * P).differentiate("q1") == (Q * P).scale(scalars.Coefficient.from_int(2))
    assert (Q * P).differentiate("p1", 2).is_zero
    assert (Q**2 * P**2).differentiate("q1").differentiate("p1") == (Q * P).scale(
        scalars.Coefficient.from_int(4)
    )


def test_differentiate_commutes():
    rng = random.Random(13)
    sp2 = phase_space(2)
    for _ in range(20):
        f = random_poly(rng, sp2, 5)
        for a in range(4):
            for b in range(4):
                assert f.differentiate(a).differentiate(b) == f.differentiate(
                    b
                ).differentiate(a)


def test_exp_diffop_examples():
    identity = DiffOp(Poly.zero(SP))
    assert identity.apply_exp(Q * P) == Q * P
    d = DiffOp(Poly.monomial(SP, (1, 1), -MU))
    assert d.apply_exp(Q * P) == parse_poly("q1*p1 - mu", SP)
    assert d.apply_exp(Q**2 * P**2) == parse_poly(
        "q1^2*p1^2 - 4*mu*q1*p1 + 2*mu^2", SP
    )


def test_exp_diffop_rejects_constant_term():
    d = DiffOp(Poly.constant(SP, MU))
    with pytest.raises(NonterminatingSeriesError):
        d.apply_exp(Q)


def test_exp_diffop_linear_and_additive():
    # exp(D) is linear, and commuting generators compose additively:
    # constant-coefficient operators always commute.
    rng = random.Random(17)
    for _ in range(10):
        gen1 = random_poly(rng, SP, 2, terms=2)
        gen2 = random_poly(rng, SP, 2, terms=2)
        gen1 = gen1 - Poly.constant(SP, gen1.constant_term())
        gen2 = gen2 - Poly.constant(SP, gen2.constant_term())
        d1, d2 = DiffOp(gen1), DiffOp(gen2)
        dsum = DiffOp(gen1 + gen2)
        f = random_poly(rng, SP, 4)
        g = random_poly(rng, SP, 4)
        assert d1.apply_exp(f + g) == d1.apply_exp(f) + d1.apply_exp(g)
        assert d1.apply_exp(d2.apply_exp(f)) == dsum.apply_exp(f)


def test_sigma_scaling_rule():
    # sigma -> -i d/dz multiplies each term by (-i)^degree.
    chi = Poly.monomial(sigma_space(1), (1, 1), MU)
    op = DiffOp.from_sigma_poly(chi)
    assert op.poly == Poly.monomial(sigma_space(1), (1, 1), -MU)


def test_degree_guard():
    saved = get_degree_guard()
    try:
        set_degree_guard(8)
        with pytest.raises(DegreeGuardError):
            (Q**5) * (Q**5)
        assert (Q**4) * (Q**4) == Q**8
    finally:
        set_degree_guard(saved)
    with pytest.raises(ValueError):
        set_degree_guard(0)


def test_substitute_and_embed():
    pair = pair_space(1)
    b = parse_poly("u1^2*v1 + u2", pair)
    # u -> u + v, v -> v is a linear substitution.
    images = [
        parse_poly("u1 + v1", pair),
        parse_poly("u2 + v2", pair),
        parse_poly("v1", pair),
        parse_poly("v2", pair),
    ]
    expected = parse_poly("(u1 + v1)^2*v1 + u2 + v2", pair)
    assert substitute(b, images, pair) == expected
    assert on_slots(b, pair, "uv", "v") == expected
    # A sigma-space polynomial placed in the second slot.
    chi = parse_poly("u1^2", sigma_space(1))
    assert on_slots(chi, pair, "v") == parse_poly("v1^2", pair)


def test_evaluate():
    f = parse_poly("q1^2*p1 + mu*q1", SP)
    val = f.evaluate([scalars.Coefficient.from_int(2), scalars.Coefficient.from_int(3)])
    assert val == scalars.Coefficient.from_int(12) + MU.scale_int(2)


def test_mu_components():
    f = parse_poly("mu^2*q1 + q1 + 3*mu*p1", SP)
    parts = f.mu_components()
    assert set(parts) == {0, 1, 2}
    assert parts[0] == Q
    assert parts[1] == P.scale(scalars.Coefficient.from_int(3))
    assert parts[2] == Q


def test_divide_exact():
    rng = random.Random(19)
    pair = pair_space(1)
    w = parse_poly("u1*v2 - u2*v1", pair)
    for _ in range(10):
        quotient = random_poly(rng, pair, 3)
        product = quotient * w
        got_q, got_r = divide_exact(product, w)
        assert got_r.is_zero
        assert got_q == quotient
    q, r = divide_exact(parse_poly("u1", pair), w)
    assert q.is_zero and r == parse_poly("u1", pair)


def test_homogeneous_and_blocks():
    pair = pair_space(1)
    b = parse_poly("u1^2*v1 + u1*v1 + v2", pair)
    assert b.homogeneous_component(2) == parse_poly("u1*v1", pair)
    comp = Poly(pair, {e: c for e, c in b.terms.items() if slot_degrees(e, 2) == (2, 1)})
    assert comp == parse_poly("u1^2*v1", pair)


def test_monomial_rejects_wrong_arity():
    with pytest.raises(SpaceMismatchError):
        Poly.monomial(phase_space(1), (1, 2, 3))
    with pytest.raises(SpaceMismatchError):
        Poly.monomial(phase_space(1), (1,), scalars.ZERO)
    assert Poly.monomial(phase_space(1), [1, 2]) == parse_poly("q1*p1^2", SP)
    assert list(Poly.constant(phase_space(2), scalars.MU).terms) == [(0, 0, 0, 0)]


def test_powers_respect_the_degree_guard():
    one_plus_mu = Poly.constant(SP, scalars.ONE + scalars.MU)
    with degree_guard(8):
        assert (Q**2) ** 4 == Q**8
        assert one_plus_mu**8 == Poly.constant(SP, (scalars.ONE + scalars.MU) ** 8)
        # Total degree, mu-degree of a numerator, mu-degree of a denominator.
        over_mu_cubed = one_plus_mu.scale(scalars.MU.inverse() ** 3)
        for base, k in ((Q**2, 5), (one_plus_mu, 9), (one_plus_mu, 20000), (over_mu_cubed, 3)):
            with pytest.raises(DegreeGuardError):
                base**k
        assert Poly.zero(SP) ** 20000 == Poly.zero(SP)


def test_degree_guard_context_manager_restores_the_bound():
    saved = get_degree_guard()
    with degree_guard(8):
        assert get_degree_guard() == 8
        with pytest.raises(DegreeGuardError):
            (Q**5) * (Q**5)
    assert get_degree_guard() == saved
    assert (Q**5) * (Q**5) == Q**10
    with pytest.raises(ValueError):
        with degree_guard(0):
            pass
    assert get_degree_guard() == saved


def test_degree_guard_is_not_shared_between_threads():
    seen = {}
    set_in_worker = threading.Event()
    checked_in_main = threading.Event()

    def worker():
        set_degree_guard(4)
        set_in_worker.set()
        checked_in_main.wait(timeout=10)
        seen["worker"] = get_degree_guard()
        try:
            Q**3 * Q**3
        except DegreeGuardError:
            seen["raised"] = True

    saved = get_degree_guard()
    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert set_in_worker.wait(timeout=10)
        assert get_degree_guard() == saved
        assert (Q**3) * (Q**3) == Q**6
    finally:
        checked_in_main.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {"worker": 4, "raised": True}
    assert get_degree_guard() == saved


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, 9))
def test_mul_truncated_is_the_truncated_product(seed, n, max_degree):
    rng = random.Random(seed)
    space = phase_space(n)
    p = random_poly(rng, space, 5, terms=4, mu_degree=2)
    q = random_poly(rng, space, 5, terms=4, mu_degree=1).scale(
        (MU + scalars.Coefficient.from_int(2)).inverse()
    )
    assert p * q == oracle_mul(p, q)
    assert p.mul_truncated(q, max_degree) == (p * q).truncate_degree(max_degree)


def wide_poly(rng, n, guard):
    """A random polynomial with mu and i over an int denominator, plus one term
    of degree `guard` whose exponent fields fill their width."""
    space = phase_space(n)
    p = random_poly(rng, space, 6, terms=5, mu_degree=3, allow_i=True)
    top = [0] * (2 * n)
    top[rng.randrange(2 * n)] = guard
    top_coeff = scalars.Coefficient.from_gauss(Fraction(rng.randint(1, 5), 3), rng.randint(-1, 1))
    return p.scale_fraction(Fraction(1, rng.randint(1, 6))) + Poly.monomial(
        space, tuple(top), top_coeff * MU
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([64, 300]))
def test_unlift_inverts_lift(seed, n, guard):
    rng = random.Random(seed)
    with degree_guard(guard):
        p = wide_poly(rng, n, guard)
        assert unlift(lift(p), p.space) == p
        assert unlift(lift(Poly.zero(p.space)), p.space) == Poly.zero(p.space)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans())
def test_lifted_product_is_the_product(seed, n, real):
    rng = random.Random(seed)
    space = phase_space(n)
    p = random_poly(rng, space, 5, terms=5, mu_degree=2, allow_i=not real)
    q = random_poly(rng, space, 5, terms=5, mu_degree=3, allow_i=not real)
    q = q.scale_fraction(Fraction(rng.randint(1, 4), rng.randint(1, 6)))
    assert unlift(lifted_mul(p, q), space) == p * q


def test_lifted_forms_are_checked():
    p = Poly.constant(SP, MU) + Q * P
    # Each operand holds mu^1; the product's mu field must hold mu^2.
    assert unlift(lifted_mul(p, p), SP) == p * p
    with pytest.raises(ValueError):
        lift(Q.scale(MU.inverse()))
    with pytest.raises(ValueError):
        lifted_mul(p, Q.scale(MU.inverse()))
    with pytest.raises(SpaceMismatchError):
        unlift(lift(p), phase_space(2))
    with pytest.raises(SpaceMismatchError):
        lifted_mul(p, Poly.one(phase_space(2)))
    with degree_guard(4):
        with pytest.raises(DegreeGuardError):
            lift(Q**5)
        with pytest.raises(DegreeGuardError):
            lifted_mul(Q**3, P**2)
        assert unlift(lifted_mul(Q**3, P), SP) == Q**3 * P


def test_differential_operators_respect_the_degree_guard():
    op = DiffOp.from_sigma_poly(Poly.monomial(sigma_space(1), (1, 1)))
    chi = Poly.monomial(sigma_space(1), (2, 0), MU)
    fits, too_high = Q**2 * P**2, Q**3 * P**2
    once, mapped = op.apply_once(fits), u_map(fits, chi)
    with degree_guard(4):
        assert op.apply_once(fits) == once
        assert u_map(fits, chi) == mapped
        for run in (op.apply_once, op.apply_exp, lambda f: u_map(f, chi)):
            with pytest.raises(DegreeGuardError):
                run(too_high)
