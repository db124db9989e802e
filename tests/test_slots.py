"""The slot algebra of `moyal.star` against literal substitution.

`on_slots`, `coboundary` and `slot_swap` are binomial rewrites of exponent
tuples; `substitute` in conftest computes the same maps by multiplying out
the image polynomials.  The readers `slot_degrees` and `bilinear_form` are
checked on hand-written tuples and as the inverse of `bilinear_pair_poly`.
"""

import random

import pytest

from conftest import (
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
    on_slots,
    slot_degrees,
    slot_swap,
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
        assert on_slots(chi, pair, slot) == chi_of(slot)


@pytest.mark.parametrize("n, denominator, seed", CASES)
def test_slot_swap_is_the_literal_substitution(n, denominator, seed):
    rng = random.Random(f"swap-{n}-{denominator}-{seed}")
    pair = pair_space(n)
    p = with_denominator(random_poly(rng, pair, 4, terms=5, mu_degree=2), rng, denominator)
    swapped = slot_swap(p)
    assert swapped == substitute(p, slot_images(pair, n, "v", "u"), pair)
    assert slot_swap(swapped) == p


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
        (Poly.zero(Space(["a", "b", "c"])), pair_space(1), ("u",)),
    ]
    for poly, target, slots in mismatched:
        with pytest.raises(SpaceMismatchError):
            on_slots(poly, target, *slots)
    with pytest.raises(SpaceMismatchError):
        coboundary(Poly.zero(Space(["a", "b", "c"])))
