"""Sparse polynomial arithmetic, differentiation, and exponential operators."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    S3,
    block_sum,
    guard_bound,
    oracle_lift_substitutions,
    oracle_mul,
    poly_fold,
    random_coefficient,
    random_poly,
    substitute,
    vanishes_at_mu_zero,
    whole_lifted_product,
)
from moyal import scalars
from moyal.errors import (
    DegreeGuardError,
    NonterminatingSeriesError,
    SpaceMismatchError,
)
from moyal.expressions import parse_coefficient, parse_poly
from moyal.poly import (
    DiffOp,
    Poly,
    block_product,
    degree_guard,
    divide_exact,
    digit_width,
    lift_scale,
    lift_slots,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from moyal.star import StarKernel, slot_degrees, slot_sum, star, u_map

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


@pytest.mark.parametrize("seed", range(8))
def test_sub_is_adding_the_negation(seed):
    """a - b subtracts b's terms where they land; it is a + (-b), also when
    everything cancels, when either side is deferred or zero, and for the
    coefficients themselves."""
    rng = random.Random(f"sub-{seed}")
    space = phase_space(1 + seed % 2)
    a = random_poly(rng, space, 4, terms=5, mu_degree=2)
    b = random_poly(rng, space, 4, terms=5, mu_degree=2) + a.scale(random_coefficient(rng))
    den = scalars.MuPoly((rng.randint(1, 3), 1))
    zero = Poly.zero(space)
    for x, y in ((a, b), (b, a), (a, a), (a.over(den), b), (a, b.over(den)), (a.over(den), a.over(den)),
                 (zero, b), (b, zero), (zero, zero)):
        diff = x - y
        assert diff == x + (-y)
        assert all(diff.terms.values())
        assert (x - y) + y == x
    assert (a - a).terms == {} and (a.over(den) - a.over(den)).terms == {}
    coeffs = [*a.terms.values(), *b.terms.values(), scalars.ZERO, MU.inverse()]
    for c in coeffs:
        for d in coeffs:
            assert c - d == c + (-d)
    other = Poly.variable(phase_space(3), "q1")
    for x, y in ((a, other), (other, a), (a.over(den), other)):
        with pytest.raises(SpaceMismatchError) as expected:
            x + (-y)
        with pytest.raises(SpaceMismatchError) as got:
            x - y
        assert str(got.value) == str(expected.value)


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
    with degree_guard(8):
        with pytest.raises(DegreeGuardError, match="raise it with degree_guard or MOYAL_MAX_DEGREE"):
            (Q**5) * (Q**5)
        assert (Q**4) * (Q**4) == Q**8


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
    assert slot_sum(b, pair, (1, "uv", "v")) == expected
    # A sigma-space polynomial placed in the second slot.
    chi = parse_poly("u1^2", sigma_space(1))
    assert slot_sum(chi, pair, (1, "v")) == parse_poly("v1^2", pair)


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


def test_monomials_reject_negative_exponents():
    # q1^-1 would print, and star with p1 would return q1^-1*p1.
    with pytest.raises(ValueError, match="negative"):
        Poly.monomial(SP, (-1, 0))
    with pytest.raises(ValueError, match="negative"):
        Poly.from_terms(SP, [((1, 0), scalars.ONE), ((0, -2), scalars.ONE)])
    assert Poly.from_terms(SP, [((1, 0), scalars.ONE), ((1, 0), scalars.MINUS_ONE)]).is_zero


@pytest.mark.parametrize(
    "build, error",
    [
        # q1^1.5 would print and have total degree 1.5; a bool is not an exponent.
        (lambda: Poly.monomial(SP, (1.5, 0)), ValueError),
        (lambda: Poly.monomial(SP, (True, 0)), ValueError),
        (lambda: Poly.monomial(SP, (1, Fraction(1))), ValueError),
        (lambda: Poly.from_terms(SP, [((1, 0), scalars.ONE), ((0, 1.0), scalars.ONE)]), ValueError),
        # An int coefficient would fail later, in str or a product.
        (lambda: Poly.monomial(SP, (1, 0), 3), TypeError),
        (lambda: Poly.monomial(SP, (1, 0), 0), TypeError),
        (lambda: Poly.constant(SP, 2), TypeError),
        (lambda: Poly.constant(SP, Fraction(1, 2)), TypeError),
        (lambda: Poly.from_terms(SP, [((1, 0), scalars.ONE), ((1, 0), 1)]), TypeError),
        (lambda: Poly.from_terms(SP, [((0, 1), "mu")]), TypeError),
    ],
)
def test_constructors_reject_malformed_input(build, error):
    with pytest.raises(error):
        build()


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


# Gaussian bases of `Coefficient.power_digits`, with the first k that
# `Poly.__pow__` refuses at the default limit of 4,300 digits.
FIRST_REFUSED_AT_4300 = {"1+i": 28577, "(1+2*i)/3": 18029, "3*i": 9015, "(2+i)/5": 12307, "i/2": 14289}


def _refused(base, k):
    try:
        base**k
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("text", FIRST_REFUSED_AT_4300)
def test_the_power_guard_refuses_no_printable_gaussian_power(text):
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:
        pytest.skip("this interpreter has no integer string limit")
    c = parse_coefficient(text)
    base = Poly.constant(SP, c)
    # power_digits grows with k, so the refused k are those from some k on.
    accepted, refused = 1, 2
    while not _refused(base, refused):
        accepted, refused = refused, 2 * refused
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        accepted, refused = (accepted, mid) if _refused(base, mid) else (mid, refused)
    with pytest.raises(ValueError):
        str(scalars.binary_power(c, refused, ONE))
    if limit == 4300:
        assert refused == FIRST_REFUSED_AT_4300[text]


def test_degree_guard_context_manager_restores_the_bound():
    saved = guard_bound()
    with degree_guard(8):
        assert guard_bound() == 8
        with degree_guard(3):
            assert guard_bound() == 3
        assert guard_bound() == 8
        with pytest.raises(DegreeGuardError):
            (Q**5) * (Q**5)
    assert guard_bound() == saved
    assert (Q**5) * (Q**5) == Q**10
    with pytest.raises(ValueError):
        with degree_guard(0):
            pass
    assert guard_bound() == saved


def test_degree_guard_is_not_shared_between_threads():
    seen = {}
    set_in_worker = threading.Event()
    checked_in_main = threading.Event()

    def worker():
        with degree_guard(4):
            set_in_worker.set()
            checked_in_main.wait(timeout=10)
            seen["worker"] = guard_bound()
            try:
                Q**3 * Q**3
            except DegreeGuardError:
                seen["raised"] = True

    saved = guard_bound()
    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert set_in_worker.wait(timeout=10)
        assert guard_bound() == saved
        assert (Q**3) * (Q**3) == Q**6
    finally:
        checked_in_main.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert seen == {"worker": 4, "raised": True}
    assert guard_bound() == saved


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


def wide_poly(rng, n, guard):
    """A random polynomial with mu and i over an int denominator, plus one term
    of degree `guard` whose exponent fields fill their width."""
    space = phase_space(n)
    p = random_poly(rng, space, 6, terms=5, mu_degree=3, allow_i=True)
    top = [0] * (2 * n)
    top[rng.randrange(2 * n)] = guard
    top_coeff = scalars.Coefficient.from_ints([rng.randint(1, 5)], [3 * rng.randint(-1, 1)], 3)
    return p.scale_fraction(Fraction(1, rng.randint(1, 6))) + Poly.monomial(
        space, tuple(top), top_coeff * MU
    )


def lift(p, digit_bits=None):
    """p in packed form on its own space: the identity substitution."""
    return oracle_lift_substitutions(p, p.space, ((1, tuple((k,) for k in range(len(p.space)))),), digit_bits)


def lifted_product(p, q):
    """p * q in packed form, the digits as wide as `block_product` asks."""
    digit_bits = digit_width(lift_scale(p)[1] * lift_scale(q)[1])
    return whole_lifted_product(lift(p, digit_bits), lift(q, digit_bits))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.sampled_from([64, 300]))
def test_unlift_inverts_lift(seed, n, guard):
    rng = random.Random(seed)
    with degree_guard(guard):
        p = wide_poly(rng, n, guard)
        one = Poly.one(p.space)
        assert lift(p).unlift() == p
        assert lifted_product(p, one).unlift() == p
        assert lifted_product(Poly.zero(p.space), one).unlift() == Poly.zero(p.space)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans())
def test_lifted_product_is_the_product(seed, n, real):
    rng = random.Random(seed)
    space = phase_space(n)
    p = random_poly(rng, space, 5, terms=5, mu_degree=2, allow_i=not real)
    q = random_poly(rng, space, 5, terms=5, mu_degree=3, allow_i=not real)
    q = q.scale_fraction(Fraction(rng.randint(1, 4), rng.randint(1, 6)))
    assert lifted_product(p, q).unlift() == p * q


def test_lifted_forms_are_checked():
    p = Poly.constant(SP, MU) + Q * P
    # Each operand holds mu^1; the product's values hold mu^2.
    assert lifted_product(p, p).unlift() == p * p
    with pytest.raises(ValueError):
        lift(Q.scale(MU.inverse()))
    with pytest.raises(ValueError):
        lifted_product(p, Q.scale(MU.inverse()))
    with pytest.raises(SpaceMismatchError):
        lift_slots(p, phase_space(2), ((1, "u", "v"),))
    with pytest.raises(SpaceMismatchError):
        whole_lifted_product(lift(p, 8), lift(Poly.one(phase_space(2)), 8))
    with pytest.raises(SpaceMismatchError):
        whole_lifted_product(lift(p, 8), lift(p, 9))
    with pytest.raises(SpaceMismatchError):
        block_product({2: lift(p)}, {2: lift(p)}, "alternating")
    tri = lift(Poly.one(triple_space(1)))
    with pytest.raises(ValueError, match="fold"):
        block_product({0: tri}, {0: tri}, "symmetric")
    q5 = Q**5
    with degree_guard(4):
        with pytest.raises(DegreeGuardError):
            lift(q5)
        with pytest.raises(DegreeGuardError):
            lifted_product(Q**3, P**2)
        assert lifted_product(Q**3, P).unlift() == Q**3 * P
    # Forms lifted under a small guard have exponent fields too narrow for q1^8.
    with degree_guard(4):
        narrow = lift(Q**4, 4)
    with pytest.raises(DegreeGuardError):
        whole_lifted_product(narrow, narrow)


@pytest.mark.parametrize(
    "p, q",
    [
        (Q.scale(scalars.I), P.scale(scalars.I)),
        (Q.scale(ONE + scalars.I), Q.scale(ONE + scalars.I)),
    ],
    ids=["i*i", "(1+i)^2"],
)
def test_lifted_product_folds_i_squared(p, q):
    product = lifted_product(p, q)
    assert product.unlift() == p * q
    # The fold leaves every i field at 0 or 1 and drops the cancelled entries.
    assert all(key & 3 in (0, 1) and value for key, value in product.terms.items())


# Denominators for `Lifted.over`: one unit, one without and two with a zero at mu = 0.
MU_DENOMINATORS = [
    scalars.MU_POLY_ONE,
    (MU + scalars.Coefficient.from_int(2)).num,
    scalars.MU_POLY_MU,
    (MU * MU + MU).num,
]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from(range(len(MU_DENOMINATORS))),
)
def test_lifted_methods_match_their_poly_definitions(seed, n, gaussian, den_index):
    rng = random.Random(seed)
    space = triple_space(n)
    p = random_poly(rng, space, 3, terms=4, mu_degree=2, allow_i=gaussian)
    q = random_poly(rng, space, 3, terms=4, mu_degree=1, allow_i=gaussian)
    q = q.scale_fraction(Fraction(rng.randint(1, 4), rng.randint(1, 6)))
    if rng.random() < 0.3:
        # A part that vanishes at mu = 0, alone or under the other terms.
        p = p.scale(MU) if rng.random() < 0.5 else p
        q = q.scale(MU) if rng.random() < 0.5 else q
    den = MU_DENOMINATORS[den_index]
    digit_bits = digit_width(lift_scale(p)[1] * lift_scale(q)[1])
    x, y = lift(p, digit_bits), lift(q, digit_bits)
    product = (p * q).over(den)
    lifted = whole_lifted_product(x, y).over(den)
    assert lifted.unlift() == product
    assert lift(p).over(den).unlift() == p.over(den)
    assert_reads_like(lifted, product)


def assert_reads_like(form, poly):
    """The packed form reads as the polynomial: `unlift`, zero test, degrees,
    lead and the mu = 0 test."""
    assert form.unlift() == poly
    assert bool(form.terms) == bool(poly)
    if poly:
        degrees = [sum(e) for e in poly.terms]
        assert form.degrees() == (min(degrees), max(degrees))
        assert form.lead() == poly.leading_term()
    assert form.vanishes_at_mu_zero() == vanishes_at_mu_zero(poly)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from(range(len(MU_DENOMINATORS))),
    st.sampled_from(["alternating", "cyclic"]),
)
def test_folded_blocks_are_the_poly_fold_of_the_product(seed, n, gaussian, den_index, fold):
    """Every degree block of a folded `block_product` is that degree's part of
    the Poly-level fold (`poly_fold`) of the plain product, and reads like it."""
    rng = random.Random(seed)
    space, width = triple_space(n), 2 * n
    p = random_poly(rng, space, 3, terms=4, mu_degree=2, allow_i=gaussian)
    q = random_poly(rng, space, 3, terms=4, mu_degree=1, allow_i=gaussian)
    q = q.scale_fraction(Fraction(rng.randint(1, 4), rng.randint(1, 6)))
    if rng.random() < 0.3:
        p = p.scale(MU)
    # u1 * v1 * w2: times the constant of q it files an orbit with two equal blocks.
    twin = tuple(1 if k in (0, width, 2 * width + 1) else 0 for k in range(3 * width))
    p = p + Poly.monomial(space, twin, random_coefficient(rng, mu_degree=1))
    q = q + Poly.one(space)
    den = MU_DENOMINATORS[den_index]
    # Three times the product's digit bound: the rotations add an entry at most three times.
    digit_bits = digit_width(3 * lift_scale(p)[1] * lift_scale(q)[1])
    left, right = lift(p, digit_bits).by_degree(), lift(q, digit_bits).by_degree()
    folded = poly_fold((p * q).over(den), fold == "alternating")
    block = block_product(left, right, fold)
    for degree in range(min(left) + min(right), max(left) + max(right) + 1):
        assert_reads_like(block(degree).over(den), folded.homogeneous_component(degree))
    # The twin's orbit sums to zero under the alternating fold, and not under the cyclic one.
    twins = block(sum(twin)).over(den).unlift()
    rotations = block_sum(Poly.monomial(space, twin), S3[:3]).terms
    assert any(e in twins.terms for e in rotations) == (fold == "cyclic")


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


def fresh_degree(p):
    """The degree read off the terms now, as `total_degree` did before it kept it."""
    return max(map(sum, p.terms)) if p.terms else -1


def test_the_kept_degree_is_the_degree_of_every_kind_of_value():
    rng = random.Random(9600)
    p = random_poly(rng, SP, 5, terms=4, mu_degree=2)
    den = (MU + scalars.Coefficient.from_int(3)).num
    deferred = p.over(den)
    assert deferred.is_deferred
    values = {
        "from_terms": Poly.from_terms(SP, [((2, 1), ONE), ((0, 4), MU), ((2, 1), -ONE)]),
        "monomial": Poly.monomial(SP, (3, 2)),
        "zero": Poly.zero(SP),
        "constant": Poly.constant(SP, MU),
        "sum": p + Q**6,
        "cancelling sum": (Q**6 + p) - Q**6,
        "difference to zero": p - p,
        "product": p * (Q + P),
        "power": (Q + P) ** 3,
        "negation": -p,
        "scale": p.scale(MU),
        "over": deferred,
        "over, divided now": p.scale(MU.inverse()).over(den),
        "in_space of a deferred value": deferred.in_space(sigma_space(1)),
        "mu_zero": (Q**5).scale(MU) + P,
        "mu_zero of a deferred value": deferred.mu_zero(),
        "derivative": (Q**3 * P).differentiate("q1"),
        "truncation": p.truncate_degree(2),
    }
    values["mu_zero"] = values["mu_zero"].mu_zero()
    assert values["zero"].total_degree() == values["difference to zero"].total_degree() == -1
    for name, value in values.items():
        first = value.total_degree()
        # A second read answers from the kept degree, which must still be the terms'.
        assert first == value.total_degree() == fresh_degree(value), name
    assert values["in_space of a deferred value"].is_deferred
    assert values["mu_zero"].total_degree() == 1


def test_a_guard_lowered_after_the_degree_was_read_still_raises():
    high = Q**3 * P**2
    assert high.total_degree() == 5
    deferred = high.over((MU + ONE).num)
    assert deferred.total_degree() == 5
    op = DiffOp.from_sigma_poly(Poly.monomial(sigma_space(1), (1, 1)))
    kernel = StarKernel.moyal(1)
    one = Poly.one(SP)
    # Warm: the product's pair memo and the operand degrees are kept.
    assert star(high, one, kernel) == high
    runs = (
        lambda f: f * P,
        op.apply_once,
        op.apply_exp,
        lambda f: star(f, one, kernel),
    )
    with degree_guard(4):
        for run in runs:
            for value in (high, deferred):
                with pytest.raises(DegreeGuardError):
                    run(value)
