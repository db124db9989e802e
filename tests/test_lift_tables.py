"""The tables behind `poly.lift_slots`, the one packed lift.

A lift compiles its slot maps once: `poly._lift_plan` translates the slot
letters straight into key units and pair steps per (source, target, maps,
exponent-field width), and `poly._binomial_row` keeps the binomial images of
each (pair steps, exponents).  These tests hold the tabled lift to the
per-call lift it replaced (the oracles in conftest.py) on every slot map the
source uses, under several degree guards, from eight threads on cold tables
and on malformed maps, and check that a malformed slot is refused by name.
They also check that a packed form never holds a zero entry, now that
`poly.Lifted` trusts its dict, that each lift reads the scale and norm of
its polynomial once, and that `factorize` lifts only twice.
"""

import importlib
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import guard_bound, oracle_lift_slots, oracle_lift_substitutions, random_gauge_chi, random_poly
from moyal import poly as POLY, scalars
from moyal.cocycle import _COCYCLE_MAPS, RawKernelExponent, factorize
from moyal.errors import DegreeGuardError, SpaceMismatchError
from moyal.lie import RawLieKernel, StructuredLieKernel, _dressed_powers, lie_axiom_check
from moyal.linalg import Matrix
from moyal.poly import (
    Poly,
    Space,
    block_product,
    degree_guard,
    exp_blocks,
    lift_scale,
    lift_slots,
    pair_space,
    phase_space,
    product_blocks,
    sigma_space,
    triple_space,
)
from moyal.star import COBOUNDARY_MAPS, bilinear_pair_poly, coboundary, slot_sum

# The package re-exports the function `lie` under the submodule's name.
LIE = importlib.import_module("moyal.lie")

# Every slot map the source lifts: (source space, target space, maps).
SOURCE_MAPS = {
    "coboundary": (sigma_space, pair_space, COBOUNDARY_MAPS),
    "dressing-w": (pair_space, pair_space, ((1, "u", "v"),)),
    "jacobi-left": (pair_space, triple_space, ((1, "u", "vw"),)),
    "jacobi-right": (pair_space, triple_space, ((1, "v", "w"),)),
    "cocycle": (pair_space, triple_space, _COCYCLE_MAPS),
}


def tables():
    return POLY._lift_plan, POLY._binomial_row


def clear_tables():
    for table in tables():
        table.cache_clear()


def layout(form):
    """Everything a packed form holds."""
    return form.terms, form.scale, form.den, form.space, form.bits, form.digit_bits


def scaled_poly(rng, space, scale):
    """A random polynomial in mu with i parts, times 1, a fraction or mu."""
    p = random_poly(rng, space, 4, terms=6, mu_degree=2, allow_i=True)
    if scale == "rational":
        p = p.scale_fraction(Fraction(rng.randint(1, 5), rng.randint(2, 7)))
    elif scale == "mu":
        p = p.scale(scalars.MU)
    return p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    name=st.sampled_from(sorted(SOURCE_MAPS)),
    scale=st.sampled_from(["one", "rational", "mu"]),
    width=st.sampled_from([None, 40]),
)
def test_the_tabled_lift_is_the_per_call_lift(seed, n, name, scale, width):
    source, target, maps = SOURCE_MAPS[name]
    p = scaled_poly(random.Random(seed), source(n), scale)
    expected = layout(oracle_lift_slots(p, target(n), maps, width))
    assert layout(lift_slots(p, target(n), maps, width)) == expected
    # The second call reads every table and gives the same form.
    assert layout(lift_slots(p, target(n), maps, width)) == expected
    if width is not None:
        # A caller that sized the digits passes the scale and norm it read.
        assert layout(lift_slots(p, target(n), maps, width, lift_scale(p))) == expected


def test_a_repeated_lift_compiles_nothing():
    rng = random.Random(11)
    p = random_poly(rng, pair_space(2), 5, terms=8, mu_degree=2, allow_i=True)
    lift_slots(p, triple_space(2), _COCYCLE_MAPS)
    misses = [table.cache_info().misses for table in tables()]
    lift_slots(p, triple_space(2), _COCYCLE_MAPS)
    assert [table.cache_info().misses for table in tables()] == misses


@pytest.mark.parametrize("guard", [100, 300])
def test_each_exponent_field_width_has_its_own_plan(guard):
    """The same polynomial lifted inside a `degree_guard` block and then under
    the default guard: each form has the fields of its guard and decodes to
    the polynomial.  A guard of 100 keeps the default's 7-bit fields; 300
    widens them to 9 bits."""
    rng = random.Random(guard)
    p = scaled_poly(rng, pair_space(2), "rational")
    maps = ((1, "u", "v"),)
    default_bits = guard_bound().bit_length()
    with degree_guard(guard):
        wide = lift_slots(p, pair_space(2), maps)
        assert layout(wide) == layout(oracle_lift_slots(p, pair_space(2), maps))
        # A degree only this guard lets through.
        high = p + Poly.monomial(p.space, (guard - 1, 0, 0, 1, 0, 0, 0, 0), scalars.MU)
        assert lift_slots(high, pair_space(2), maps).unlift() == high
    narrow = lift_slots(p, pair_space(2), maps)
    assert (wide.bits, narrow.bits) == (guard.bit_length(), default_bits)
    assert wide.unlift() == narrow.unlift() == p
    assert layout(narrow) == layout(oracle_lift_slots(p, pair_space(2), maps))
    with pytest.raises(DegreeGuardError):
        lift_slots(high, pair_space(2), maps)


def test_threads_share_the_lift_tables_from_cold():
    """Eight threads released together lift the same inputs in different
    orders, switching as often as possible, from cleared tables."""
    rng = random.Random(5)
    cases = [
        (scaled_poly(rng, source(n), scale), target(n), maps)
        for n in (1, 2)
        for scale in ("one", "rational", "mu")
        for source, target, maps in SOURCE_MAPS.values()
    ]
    expected = [layout(oracle_lift_slots(*case)) for case in cases]
    barrier, errors = threading.Barrier(8), []

    def run(offset):
        try:
            barrier.wait(timeout=60)
            for i in range(len(cases)):
                k = (i + offset) % len(cases)
                if layout(lift_slots(*cases[k])) != expected[k]:
                    errors.append(k)
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    clear_tables()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_malformed_maps_raise_what_the_per_call_lift_raised():
    p = random_poly(random.Random(7), pair_space(1), 3, terms=3)
    chi = Poly.variable(sigma_space(1), "u1")
    cases = [
        (p, triple_space(2), ((1, "u", "v"),)),
        (p, phase_space(2), ((1, "u", "v"),)),
        (p, Space(f"x{i}" for i in range(5)), ((1, "u", "v"),)),
        (p, triple_space(1), ((1, "u", "v", "w"),)),
        (p, triple_space(1), ((1, "u", "vw"), (1, "u", "v", "w"))),
        (chi, pair_space(1), ((1, "u", "v"),)),
        (chi, sigma_space(1), ((1, "u"),)),
        (Poly.zero(Space(["a", "b", "c"])), pair_space(1), ((1, "u"),)),
    ]
    for case in cases:
        with pytest.raises(SpaceMismatchError) as expected:
            oracle_lift_slots(*case)
        for _ in range(2):
            with pytest.raises(SpaceMismatchError) as got:
                lift_slots(*case)
            assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "target, slots, bad",
    [
        (triple_space(1), ("uvw",), "uvw"),
        (pair_space(1), ("w",), "w"),
        (pair_space(1), ("",), ""),
        (triple_space(1), ("u", "vx"), "vx"),
        (pair_space(1), ("u", "vw"), "vw"),
    ],
)
def test_a_slot_that_names_no_blocks_is_refused(target, slots, bad):
    """A slot must be one or two letters naming blocks of the target; the
    plan refuses any other, by name, before anything is lifted."""
    p = Poly.variable(sigma_space(1) if len(slots) == 1 else pair_space(1), "u1")
    for _ in range(2):
        with pytest.raises(SpaceMismatchError, match=f"^slot {bad!r} does not name one or two blocks of"):
            slot_sum(p, target, (1, *slots))


def test_each_lift_reads_its_scale_once(monkeypatch):
    """`poly.lift_scale` runs once per lift: once per `slot_sum`, once for
    both slot maps of the Jacobi defect, once for each of the two lifts of
    the dressing."""
    calls = []

    def counting(p):
        calls.append(p)
        return lift_scale(p)

    for module in (POLY, LIE):
        monkeypatch.setattr(module, "lift_scale", counting)
    rng = random.Random(3)
    chi = random_gauge_chi(rng, 1, 3, terms=2, mu_degree=1)
    coboundary(chi)
    assert len(calls) == 1
    omega = Matrix.canonical_symplectic(1, scalars.ONE)
    calls.clear()
    list(_dressed_powers(chi, bilinear_pair_poly(omega.transpose(), 1), 6))
    assert len(calls) == 2
    antisymmetric = StructuredLieKernel(1, chi, omega, (scalars.ONE, scalars.MU)).expand(6)
    for raw in (antisymmetric, RawLieKernel(1, antisymmetric.a + Poly.variable(pair_space(1), "v1"))):
        calls.clear()
        lie_axiom_check(raw)
        assert len(calls) == 1


def test_factorize_lifts_twice(monkeypatch):
    """One `factorize` reads two lift plans: the cocycle defect and the
    coboundary that `chi_extract` checks b_s against.  It does not rebuild
    the exponent to compare it with b once more."""
    calls = []
    plan = POLY._lift_plan

    def counting(*args):
        calls.append(args[2])
        return plan(*args)

    chi = random_gauge_chi(random.Random(13), 1, 3, terms=2, mu_degree=1)
    b = coboundary(chi) + bilinear_pair_poly(Matrix.canonical_symplectic(1, scalars.MU), 1)
    monkeypatch.setattr(POLY, "_lift_plan", counting)
    fact = factorize(RawKernelExponent(1, b))
    assert calls == [_COCYCLE_MAPS, COBOUNDARY_MAPS]
    assert fact.rebuild() == b


def no_zero(*forms):
    return all(0 not in form.terms.values() for form in forms)


@pytest.mark.parametrize("seed", range(6))
def test_no_producer_returns_a_zero_entry(seed):
    rng = random.Random(f"no-zero-{seed}")
    n = 1 + seed % 2
    pair, tri = pair_space(n), triple_space(n)
    b = random_poly(rng, pair, 4, terms=6, mu_degree=2, allow_i=True)
    forms = [lift_slots(b, tri, maps, 48) for maps in (((1, "u", "vw"),), ((1, "v", "w"),), _COCYCLE_MAPS)]
    # The maps of a coboundary cancel every term of the cocycle defect.
    numerators, _ = coboundary(random_gauge_chi(rng, n, 4, terms=4, mu_degree=1)).split_denominator()
    assert lift_slots(numerators, tri, _COCYCLE_MAPS).terms == {}
    left, right = forms[0].by_degree(), forms[1].by_degree()
    assert no_zero(*forms, *left.values(), forms[2].over(scalars.MU_POLY_ONE))
    for fold in (None, "alternating", "cyclic"):
        product = block_product(left, right, fold)
        assert no_zero(*(product(d) for d in range(min(left) + min(right), max(left) + max(right) + 1)))
    # (1 + i) q1 times (1 - i) q1 and (q1 + p1)(q1 - p1): their i parts and
    # cross terms cancel in the unfolded product.
    space = phase_space(1)
    x, y = (Poly.monomial(space, (1, 0), scalars.Coefficient.from_ints([1], [s], 1)) for s in (1, -1))
    q, p = Poly.variable(space, "q1"), Poly.variable(space, "p1")
    identity = ((1, ((0,), (1,))),)
    for f, g in ((x, y), (q + p, q - p)):
        f_form, g_form = (oracle_lift_substitutions(h, space, identity, 8).by_degree() for h in (f, g))
        block = block_product(f_form, g_form)(2)
        assert no_zero(block) and block.unlift() == f * g
        # Real coefficients: one entry per term of the product.
        assert len(block.terms) == len((f * g).terms)
    chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1, allow_i=True)
    dress = exp_blocks(lift_slots(chi, pair, COBOUNDARY_MAPS, 64), 6)
    assert no_zero(*dress.values(), *product_blocks(dress, dress, 6).values())
