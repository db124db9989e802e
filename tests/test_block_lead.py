"""The best-first lead read of a folded block, `poly.block_lead`, against the
block built whole by `poly.block_product` and against the Poly-level fold.

Each seeded case reads every degree of a folded product of two random
triple-space forms, with i parts, mu-denominators and both folds.  The cases
are checked to include the three situations the read's stop rule must get
right: a top block that vanishes, a largest reachable orbit with two equal
blocks (which the alternating fold drops), and a largest filed key whose
entries cancel, so the read passes it for a lower one.
"""

import random

import pytest

from conftest import S3, block_sum, fold_situations, poly_fold, random_poly
from moyal import scalars
from moyal.errors import DegreeGuardError, SpaceMismatchError
from moyal.expressions import parse_poly
from moyal.poly import (
    Poly,
    block_lead,
    block_product,
    degree_guard,
    digit_width,
    lift_scale,
    lift_substitutions,
    phase_space,
    triple_space,
)

MU = scalars.MU
DENOMINATORS = [
    scalars.MU_POLY_ONE,
    (MU + scalars.Coefficient.from_int(2)).num,
    scalars.MU_POLY_MU,
]
FOLDS = ["alternating", "cyclic"]


def lift(p, digit_bits):
    """p in packed form on its own space, split by degree."""
    identity = ((1, tuple((k,) for k in range(len(p.space)))),)
    return lift_substitutions(p, p.space, identity, digit_bits).by_degree()


def split(p, q):
    """The split forms of p and q, the digits wide enough for either fold."""
    digit_bits = digit_width(3 * lift_scale(p)[1] * lift_scale(q)[1])
    return lift(p, digit_bits), lift(q, digit_bits)


# A group of block permutations that each fold takes to a sign: u and v
# swapped, -1 under the alternating fold, and the rotations, 1 under the
# cyclic fold.
GROUPS = {"alternating": [((0, 1, 2), 1), ((1, 0, 2), -1)], "cyclic": S3[:3]}


def case(n, fold, gaussian, den_index, seed):
    """Two random triple-space polynomials.  For odd seeds the top part of p
    meets its moved copy with the opposite fold sign, and q is made
    invariant under the group, so the top block of the folded product
    vanishes while the blocks below it need not."""
    rng = random.Random(f"lead-{n}-{fold}-{gaussian}-{den_index}-{seed}")
    space = triple_space(n)
    p = random_poly(rng, space, 3, terms=8, mu_degree=2, allow_i=gaussian)
    q = random_poly(rng, space, 2, terms=3, mu_degree=1, allow_i=gaussian)
    if seed % 2:
        group = GROUPS[fold]
        perm, sign = group[1]
        p = p + block_sum(p.homogeneous_component(p.total_degree()), [(perm, -sign)])
        q = block_sum(q, [(perm, 1) for perm, _ in group])
    return p, q, DENOMINATORS[den_index]


CASES = [
    (n, fold, gaussian, den_index, seed)
    for n in (1, 2)
    for fold in FOLDS
    for gaussian in (False, True)
    for den_index in range(len(DENOMINATORS))
    for seed in range(4)
]


def read_every_degree(n, fold, gaussian, den_index, seed):
    """Assert the read equals the built block at every degree; return the
    hard cases met (`fold_situations`)."""
    p, q, den = case(n, fold, gaussian, den_index, seed)
    if not p or not q:
        return set()
    left, right = split(p, q)
    folded = poly_fold((p * q).over(den), fold == "alternating")
    product = block_product(left, right, fold)
    top = max(left) + max(right)
    for degree in range(min(left) + min(right), top + 1):
        built = product(degree)
        entry = block_lead(left, right, fold, degree)
        expected = folded.homogeneous_component(degree)
        assert (entry is None) == (not built.terms) == (not expected)
        if entry is not None:
            monomial = max(built.terms) & ~1
            assert entry.terms == {k: v for k, v in built.terms.items() if k & ~1 == monomial}
            assert entry.over(den).lead() == built.over(den).lead() == expected.leading_term()
    return fold_situations(p, q, fold)


@pytest.mark.parametrize("n, fold, gaussian, den_index, seed", CASES)
def test_the_read_is_the_lead_of_the_built_block(n, fold, gaussian, den_index, seed):
    read_every_degree(n, fold, gaussian, den_index, seed)


@pytest.mark.parametrize("fold", FOLDS)
def test_the_cases_hold_every_hard_case_of_the_stop_rule(fold):
    seen = set()
    for args in CASES:
        if args[1] == fold:
            seen |= read_every_degree(*args)
    hard = {"top vanishes", "cancelled candidate"}
    assert hard | ({"two equal blocks"} if fold == "alternating" else set()) <= seen


TRI = triple_space(1)


def forms(p_text, q_text):
    return split(parse_poly(p_text, TRI), parse_poly(q_text, TRI))


def test_equal_bounds_are_not_final_until_both_are_read():
    """u1*v2 and u2*v1 reach the same key with the same bound, and cancel
    under the alternating fold: the block vanishes, though the first entry
    read leaves a nonzero value at a key no other bound lies above."""
    left, right = forms("u1*v2 + u2*v1", "1")
    assert block_lead(left, right, "alternating", 2) is None
    assert not block_product(left, right, "alternating")(2).terms
    # Under the cyclic fold nothing cancels.
    assert block_lead(left, right, "cyclic", 2) is not None


def test_a_bound_needs_every_field_of_the_right():
    """The lead comes from the left entry whose bound rises most with each
    field of the right block: read without one of those fields, a lower
    entry's key would look final first."""
    for fold in FOLDS:
        for right_text in ("u2 + v1*w2", "v2 + u1*w2", "w2 + u1*v2", "u2 + v2 + w2", "v1 + v2"):
            left, right = forms("u1^2*v1 + u2*v2^2 + v1*w1^2 + w2^3 + u1*w2^2", right_text)
            for degree in range(min(left) + min(right), max(left) + max(right) + 1):
                built = block_product(left, right, fold)(degree)
                entry = block_lead(left, right, fold, degree)
                assert (entry is None) == (not built.terms)
                if entry is not None:
                    assert entry.lead() == built.lead()


def test_the_read_checks_what_the_product_checks():
    left, right = forms("u1*v2", "1")
    with pytest.raises(ValueError, match="fold"):
        block_lead(left, right, "symmetric", 2)
    phase = lift(parse_poly("q1*p1", phase_space(1)), 8)
    with pytest.raises(SpaceMismatchError):
        block_lead(phase, phase, "alternating", 4)
    with pytest.raises(SpaceMismatchError):
        block_lead(left, lift(parse_poly("1", TRI), 9), "alternating", 2)
    with degree_guard(2):
        with pytest.raises(DegreeGuardError):
            block_lead(left, left, "alternating", 4)
