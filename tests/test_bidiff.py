"""Differential tests for `star.BiDiff`, the one compiled bidifferential operator.

Star products, bracket kernels and the n = 1 coefficient table all run through
BiDiff; here its routes are compared with each other and with a direct
DiffOp evaluation on the whole tensor product f (x) g, on seeded dressed
kernels and multi-term operands with mu-denominators.
"""

import importlib
import random

import pytest

from conftest import dressed_kernel, operand, random_poly, slot_images, substitute
from moyal.errors import DegreeGuardError, DimensionMismatchError, SpaceMismatchError
from moyal.lie import (
    RawLieKernel,
    apply_bracket_kernel,
    bidiff_coefficients,
    bracket_kernel_of,
    reconstruct_bracket,
)
from moyal.poly import DiffOp, Poly, degree_guard, pair_space, phase_space, triple_space
from moyal.star import BiDiff, bracket, on_slots, star

# The package re-exports the function `star` under the submodule's name.
star_module = importlib.import_module("moyal.star")


def tensor_product(f, g):
    n = len(f.space) // 2
    terms = {ef + eg: cf * cg for ef, cf in f.terms.items() for eg, cg in g.terms.items()}
    return Poly(pair_space(n), terms)


def diagonal(p, n):
    width = 2 * n
    return p.map_exponents(
        lambda e: tuple(a + b for a, b in zip(e[:width], e[width:])), phase_space(n)
    )


CASES = [(1, 3, seed) for seed in range(4)] + [(2, 2, seed) for seed in range(3)]


@pytest.mark.parametrize("n, degree, seed", CASES)
def test_bracket_kernel_application_matches_bracket(n, degree, seed):
    rng = random.Random(9000 + seed)
    kernel = dressed_kernel(rng, n)
    a = bracket_kernel_of(kernel, truncation_degree=2 * degree)
    for _ in range(2):
        f, g = operand(rng, n, degree), operand(rng, n, degree)
        assert apply_bracket_kernel(a, f, g) == bracket(f, g, kernel)


@pytest.mark.parametrize("n, degree, seed", CASES)
def test_star_matches_exponential_on_the_tensor_product(n, degree, seed, monkeypatch):
    rng = random.Random(9100 + seed)
    kernel = dressed_kernel(rng, n)
    op = DiffOp.from_sigma_poly(kernel.exponent())
    pairs = [(operand(rng, n, degree), operand(rng, n, degree)) for _ in range(2)]
    for f, g in pairs:
        expected = diagonal(op.apply_exp(tensor_product(f, g)), n)
        assert star(f, g, kernel) == expected
        assert star(f, g, kernel) == expected  # from the pair memo
    # A memo that keeps clearing itself gives the same products.
    monkeypatch.setattr(star_module, "PAIR_MEMO_SIZE", 2)
    compiled = BiDiff(kernel.exponent())
    for f, g in pairs:
        assert compiled.apply_exp(f, g) == diagonal(op.apply_exp(tensor_product(f, g)), n)


@pytest.mark.parametrize("seed", range(6))
def test_table_reconstruction_matches_kernel_application(seed):
    rng = random.Random(9200 + seed)
    a = RawLieKernel(1, random_poly(rng, pair_space(1), 5, terms=6, mu_degree=1))
    f, g = operand(rng, 1, 3), operand(rng, 1, 4)
    table = bidiff_coefficients(a, 3, 4)
    assert reconstruct_bracket(table, f, g) == apply_bracket_kernel(a, f, g)


def test_bracket_kernel_application_is_one_operator_pass():
    rng = random.Random(9300)
    a = random_poly(rng, pair_space(1), 4, terms=5, mu_degree=1)
    f, g = operand(rng, 1, 3), operand(rng, 1, 3)
    expected = diagonal(DiffOp.from_sigma_poly(a).apply_once(tensor_product(f, g)), 1)
    assert BiDiff(a).apply(f, g) == expected


def test_bidiff_entry_points_check_their_operands():
    op = BiDiff(dressed_kernel(random.Random(9350), 1).exponent())
    q1, p1 = Poly.variable(phase_space(1), "q1"), Poly.variable(phase_space(1), "p1")
    entry_points = (op.apply, op.apply_exp, op.commutator)
    with degree_guard(4):
        for entry in entry_points:
            with pytest.raises(DegreeGuardError):
                entry(q1**3, p1**3)
            entry(q1**3, p1)
    for entry in entry_points:
        with pytest.raises(DimensionMismatchError):
            entry(Poly.variable(phase_space(2), "q1"), p1)


def test_bidiff_rejects_a_non_pair_space():
    with pytest.raises(SpaceMismatchError):
        BiDiff(Poly.zero(triple_space(1)))


@pytest.mark.parametrize(
    "first, second", [("u", "v"), ("v", "w"), ("w", "u"), ("u", "vw"), ("uv", "w")]
)
def test_on_slots_matches_substitution(first, second):
    rng = random.Random(9400)
    n = 1
    p = random_poly(rng, pair_space(n), 4, terms=5, mu_degree=1)
    tri = triple_space(n)
    expected = substitute(p, slot_images(tri, n, first, second), tri)
    assert on_slots(p, tri, first, second) == expected


def test_coefficient_table_sizes_are_bounded():
    a = RawLieKernel(1, random_poly(random.Random(9400), pair_space(1), 3, terms=4, mu_degree=1))
    for rmax, smax in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError):
            bidiff_coefficients(a, rmax, smax)
    with degree_guard(6):
        assert len(bidiff_coefficients(a, 3, 3)) == 10 * 10
        assert len(bidiff_coefficients(a, 0, 6)) == 1 * 28
        for rmax, smax in ((4, 3), (0, 7)):
            with pytest.raises(DegreeGuardError):
                bidiff_coefficients(a, rmax, smax)
