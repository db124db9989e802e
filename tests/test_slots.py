"""The slot algebra of `moyal.star` against literal substitution.

`slot_sum`, and `coboundary` on top of it, are binomial rewrites of
exponent tuples on packed ints; `substitute` in conftest computes the same
maps by multiplying out the image polynomials, and `oracle_slot_sum` by the
same rewrite on `Coefficient`s.  The readers `slot_degrees` and
`bilinear_form` are checked on hand-written tuples and as the inverse of
`bilinear_pair_poly`.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_slot_sum,
    random_antisymmetric,
    random_coefficient,
    random_gauge_chi,
    random_poly,
    slot_images,
    substitute,
)
from moyal import scalars
from moyal.errors import SpaceMismatchError
from moyal.linalg import Matrix
from moyal.poly import Poly, Space, pair_space, phase_space, sigma_space, triple_space
from moyal.star import (
    bilinear_form,
    bilinear_pair_poly,
    coboundary,
    slot_degrees,
    slot_sum,
    swap_slots,
)

CASES = [(n, denominator, seed) for n in (1, 2) for denominator in (False, True) for seed in range(3)]


def with_denominator(p, rng, denominator):
    """p over a mu-denominator (mu + c) when asked, else p itself."""
    if not denominator:
        return p
    return p.scale((scalars.MU + scalars.Coefficient.from_int(rng.randint(1, 3))).inverse())


@pytest.mark.parametrize("n, denominator, seed", CASES)
def test_coboundary_is_the_literal_substitution(n, denominator, seed):
    rng = random.Random(f"coboundary-{n}-{denominator}-{seed}")
    chi = random_gauge_chi(rng, n, 4, terms=4, mu_degree=1, allow_i=True)
    chi = with_denominator(chi, rng, denominator)
    pair = pair_space(n)

    def chi_of(*slots):
        return substitute(chi, slot_images(pair, n, *slots), pair)

    assert coboundary(chi) == chi_of("u") + chi_of("v") - chi_of("uv")
    for slot in ("u", "v", "uv"):
        assert slot_sum(chi, pair, (1, slot)) == chi_of(slot)


@pytest.mark.parametrize("n, denominator, seed", CASES)
def test_slot_swap_is_the_literal_substitution(n, denominator, seed):
    rng = random.Random(f"swap-{n}-{denominator}-{seed}")
    pair = pair_space(n)
    p = with_denominator(random_poly(rng, pair, 4, terms=5, mu_degree=2), rng, denominator)
    swapped = slot_sum(p, pair, (1, "v", "u"))
    assert swapped == substitute(p, slot_images(pair, n, "v", "u"), pair)
    assert slot_sum(swapped, pair, (1, "v", "u")) == p
    assert swap_slots(p) == swapped and swap_slots(swapped) == p


# Signed slot maps from pair or triple space into a pair or triple space
# (`test_coboundary_is_the_literal_substitution` covers sigma space).
SLOT_SUMS = {
    "cocycle-defect": (
        "pair", "triple", [(1, "v", "w"), (-1, "uv", "w"), (1, "u", "vw"), (-1, "u", "v")],
    ),
    "antisymmetric-part": ("pair", "pair", [(1, "u", "v"), (-1, "v", "u")]),
    "into-triple": ("pair", "triple", [(-1, "w", "uv"), (1, "vw", "u")]),
    "cyclic": ("triple", "triple", [(1, "u", "v", "w"), (1, "v", "w", "u"), (1, "w", "u", "v")]),
    "signed-permutations": (
        "triple", "triple",
        [(1, "u", "v", "w"), (-1, "v", "u", "w"), (-1, "u", "w", "v"), (1, "w", "u", "v")],
    ),
}
SPACES = {"pair": pair_space, "triple": triple_space}


@pytest.mark.parametrize("name", sorted(SLOT_SUMS))
@pytest.mark.parametrize("n, denominator, seed", CASES)
def test_slot_sum_is_the_signed_literal_substitution(name, n, denominator, seed):
    source, target, maps = SLOT_SUMS[name]
    rng = random.Random(f"slot-sum-{name}-{n}-{denominator}-{seed}")
    space, into = SPACES[source](n), SPACES[target](n)
    p = with_denominator(
        random_poly(rng, space, 4, terms=5, mu_degree=2, allow_i=True), rng, denominator
    )
    expected = Poly.zero(into)
    for sign, *slots in maps:
        image = substitute(p, slot_images(into, n, *slots), into)
        expected = expected + image if sign == 1 else expected - image
    assert slot_sum(p, into, *maps) == expected


# Every slot pattern the source uses, by (source space, target space).
SOURCE_PATTERNS = {
    "sigma-to-pair": (sigma_space, pair_space, [("u",), ("v",), ("uv",)]),
    "pair-to-pair": (pair_space, pair_space, [("v", "u"), ("u", "v")]),
    "pair-to-triple": (
        pair_space, triple_space, [("v", "w"), ("u", "vw"), ("uv", "w"), ("u", "v")],
    ),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    denominator=st.sampled_from([None, "mu+c", "mu"]),
    group=st.sampled_from(sorted(SOURCE_PATTERNS)),
    data=st.data(),
)
def test_packed_slot_sum_is_the_coefficient_loop(seed, n, denominator, group, data):
    source, target, patterns = SOURCE_PATTERNS[group]
    maps = data.draw(
        st.lists(
            st.tuples(st.sampled_from([1, -1, 2, -3]), st.sampled_from(patterns)),
            min_size=1, max_size=4,
        )
    )
    maps = [(sign, *slots) for sign, slots in maps]
    rng = random.Random(seed)
    p = random_poly(rng, source(n), 4, terms=6, mu_degree=2, allow_i=True)
    p = p.scale_fraction(Fraction(rng.randint(1, 5), rng.randint(1, 6)))
    if denominator == "mu+c":
        p = with_denominator(p, rng, True)
    elif denominator == "mu":
        p = p.scale(scalars.MU.inverse())
    assert slot_sum(p, target(n), *maps) == oracle_slot_sum(p, target(n), *maps)


@pytest.mark.parametrize("group", sorted(SOURCE_PATTERNS))
def test_packed_slot_sum_digits_of_one_large_term(group):
    """One term, c * x^8 for the first variable x, with c of about 2^41: the
    binomial images reach C(8, 4) * c, so the digits need the 2^deg of their
    bound, and repeating a map with the same sign cancels nothing."""
    source, target, patterns = SOURCE_PATTERNS[group]
    space = source(1)
    exps = (8,) + (0,) * (len(space) - 1)
    c = scalars.Coefficient.from_ints([2**41 - 1, 0, 3 * 2**40 + 7], [2**41 - 3, 0, 0], 1)
    p = Poly.monomial(space, exps, c)
    maps = [(sign, *slots) for slots in patterns for sign in (1, 2)]
    assert slot_sum(p, target(1), *maps) == oracle_slot_sum(p, target(1), *maps)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("antisymmetric", [True, False])
@pytest.mark.parametrize("seed", range(3))
def test_bilinear_form_inverts_bilinear_pair_poly(n, antisymmetric, seed):
    rng = random.Random(f"form-{n}-{antisymmetric}-{seed}")
    width = 2 * n
    if antisymmetric:
        m = random_antisymmetric(rng, width)
    else:
        m = Matrix(
            [[random_coefficient(rng) for _ in range(width)] for _ in range(width)]
        )
    pair = bilinear_pair_poly(m, n)
    assert bilinear_form(pair, n) == m
    # Terms of any other bidegree are not read.
    other = random_poly(rng, pair_space(n), 4, terms=6, mu_degree=1)
    other = Poly(
        other.space,
        {e: c for e, c in other.terms.items() if slot_degrees(e, width) != (1, 1)},
    )
    assert bilinear_form(pair + other, n) == m


def test_bilinear_form_reads_the_second_slot_as_rows():
    # sigma'^T M sigma with the single entry M[0][1]: the term v1*u2.
    p = Poly.monomial(pair_space(1), (0, 1, 1, 0), scalars.MU)
    assert bilinear_form(p, 1) == Matrix([[scalars.ZERO, scalars.MU], [scalars.ZERO] * 2])


@pytest.mark.parametrize(
    "exps, width, degrees",
    [
        ((1, 0, 2, 3), 2, (1, 5)),
        ((0, 0, 0, 1), 2, (0, 1)),
        ((1, 1, 0, 2, 0, 0, 0, 1), 4, (4, 1)),
        ((1, 0, 0, 0, 2, 1), 2, (1, 0, 3)),
        ((0, 1, 2, 0, 1, 0, 0, 0, 3, 0, 0, 1), 4, (3, 1, 4)),
    ],
)
def test_slot_degrees(exps, width, degrees):
    assert slot_degrees(exps, width) == degrees


def test_on_slots_rejects_mismatched_spaces():
    p = random_poly(random.Random(5), pair_space(1), 3, terms=3)
    chi = Poly.variable(sigma_space(1), "u1")
    mismatched = [
        (p, triple_space(2), ("u", "v")),  # target of another dimension
        (p, phase_space(2), ("u", "v")),  # not a pair or triple space
        (p, Space(f"x{i}" for i in range(5)), ("u", "v")),  # not whole slots
        (p, triple_space(1), ("u", "v", "w")),  # p holds two slots, not three
        (chi, pair_space(1), ("u", "v")),
        (chi, sigma_space(1), ("u",)),  # the identity lift stays out of src
        (Poly.zero(Space(["a", "b", "c"])), pair_space(1), ("u",)),
    ]
    for poly, target, slots in mismatched:
        with pytest.raises(SpaceMismatchError):
            slot_sum(poly, target, (1, *slots))
    # A slot sum checks every map, not only its first.
    with pytest.raises(SpaceMismatchError):
        slot_sum(p, triple_space(1), (1, "u", "vw"), (1, "u", "v", "w"))
    with pytest.raises(SpaceMismatchError):
        coboundary(Poly.zero(Space(["a", "b", "c"])))
    for poly in (chi, random_poly(random.Random(6), triple_space(1), 3, terms=3)):
        with pytest.raises(SpaceMismatchError):
            swap_slots(poly)
