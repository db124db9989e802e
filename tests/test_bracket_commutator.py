"""Differential gate for the memoised bracket.

`star.bracket` is one walk over the commutator memo of the kernel's `BiDiff`.
Here it is compared with the literal star commutator over 2 mu, with the
independent operator route of operators.py, and with itself under memos that
keep clearing, on seeded dressed kernels at n = 1 and 2 and multi-term
operands over mu-denominators.
"""

import importlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bracket_kernel_of, dressed_kernel, operand
from moyal import scalars
from moyal.errors import DegreeGuardError, DimensionMismatchError
from moyal.lie import apply_bracket_kernel
from moyal.linalg import Matrix
from moyal.operators import nc_mul, weyl_quantize, weyl_symbol
from moyal.poly import (
    Poly,
    degree_guard,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from moyal.star import BiDiff, StarKernel, bracket, star, u_map

# The package re-exports the function `star` under the submodule's name.
star_module = importlib.import_module("moyal.star")

# Operand degree per dimension keeps one example well under a second.
MAX_DEGREE = {1: 3, 2: 2}

cases = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))


def literal_bracket(f, g, kernel):
    return (star(f, g, kernel) - star(g, f, kernel)).scale(scalars.HALF_INV_MU)


def operator_bracket(f, g, chi):
    """(O(f)O(g) - O(g)O(f)) / (2 mu) mapped back, with O = weyl_quantize . u_map(., chi)."""
    of, og = weyl_quantize(u_map(f, chi)), weyl_quantize(u_map(g, chi))
    comm = (nc_mul(of, og) - nc_mul(og, of)).scale(scalars.HALF_INV_MU)
    return u_map(weyl_symbol(comm), -chi)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases)
def test_bracket_is_the_literal_star_commutator(case):
    seed, n = case
    rng = random.Random(seed)
    kernel = dressed_kernel(rng, n)
    for _ in range(2):
        f, g = operand(rng, n, MAX_DEGREE[n]), operand(rng, n, MAX_DEGREE[n])
        got = bracket(f, g, kernel)
        assert got == literal_bracket(f, g, kernel)
        assert bracket(g, f, kernel) == -got


@settings(max_examples=15, deadline=None, derandomize=True)
@given(cases)
def test_bracket_matches_the_operator_route(case):
    seed, n = case
    rng = random.Random(seed)
    kernel = dressed_kernel(rng, n, m=Matrix.canonical_symplectic(n, scalars.MU))
    f, g = operand(rng, n, MAX_DEGREE[n]), operand(rng, n, MAX_DEGREE[n])
    assert bracket(f, g, kernel) == operator_bracket(f, g, kernel.chi)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(cases)
def test_memos_that_keep_clearing_give_the_same_results(case):
    seed, n = case
    rng = random.Random(seed)
    kernel = dressed_kernel(rng, n)
    pairs = [(operand(rng, n, MAX_DEGREE[n]), operand(rng, n, MAX_DEGREE[n])) for _ in range(2)]
    expected = [(bracket(f, g, kernel), star(f, g, kernel)) for f, g in pairs]
    with mock.patch.object(star_module, "PAIR_MEMO_SIZE", 1):
        compiled = BiDiff(kernel.exponent())
        for (f, g), (want_bracket, want_star) in zip(pairs, expected):
            assert compiled.commutator(f, g) == want_bracket
            assert compiled.apply_exp(f, g) == want_star
            assert compiled.commutator(g, f) == -want_bracket
        for memo in (compiled._exp_piece, compiled._commutator_piece):
            assert memo.cache_info().currsize <= 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spaces_are_built_once(n):
    for space_of in (phase_space, sigma_space, pair_space, triple_space):
        assert space_of(n) is space_of(n)


def test_star_bracket_and_kernel_application_share_the_operand_check():
    kernel = StarKernel.moyal(1)
    a = bracket_kernel_of(kernel, truncation_degree=4)
    q1 = Poly.variable(phase_space(1), "q1")
    p1 = Poly.variable(phase_space(1), "p1")
    wrong = Poly.variable(phase_space(2), "q1")
    for route in (star, bracket):
        with pytest.raises(DimensionMismatchError):
            route(q1, wrong, kernel)
    with pytest.raises(DimensionMismatchError):
        apply_bracket_kernel(a, wrong, p1)
    with degree_guard(4):
        for route in (star, bracket):
            assert route(q1**2, p1**2, kernel) == route(q1**2, p1**2, kernel)
            with pytest.raises(DegreeGuardError):
                route(q1**3, p1**2, kernel)
        assert apply_bracket_kernel(a, q1**2, p1**2) == apply_bracket_kernel(a, q1**2, p1**2)
        with pytest.raises(DegreeGuardError):
            apply_bracket_kernel(a, q1**3, p1**2)
