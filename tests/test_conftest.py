"""The shared test helpers enumerate exactly what their plain definitions do."""

import itertools

import pytest

from conftest import monomial_tuples
from moyal.poly import phase_space


def filtered_tuples(space, count, max_sum_degree):
    """The reference: every combination of product(...), filtered by degree."""
    singles = [
        exps
        for exps in itertools.product(range(max_sum_degree + 1), repeat=len(space))
        if sum(exps) <= max_sum_degree
    ]
    return [
        combo
        for combo in itertools.product(singles, repeat=count)
        if sum(sum(e) for e in combo) <= max_sum_degree
    ]


@pytest.mark.parametrize(
    "n, count, degree", [(1, 2, 5), (1, 3, 4), (2, 2, 4), (2, 3, 3), (2, 3, 4), (1, 1, 0)]
)
def test_monomial_tuples_match_the_filtered_product(n, count, degree):
    space = phase_space(n)
    got = [
        tuple(next(iter(m.terms)) for m in combo)
        for combo in monomial_tuples(space, count, degree)
    ]
    assert got == filtered_tuples(space, count, degree)
    assert all(m.space == space for combo in monomial_tuples(space, count, 1) for m in combo)
