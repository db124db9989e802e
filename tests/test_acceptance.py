"""Acceptance suite: one test per criterion, every comparison exact.

All arithmetic is zero-tolerance in Q(i)(mu); there are no numerical
tolerances to calibrate.  Each test prints a PASS line (run with `pytest
tests/test_acceptance.py -v -s` to see them).  Randomized criteria use fixed
seeds and are fully deterministic.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    bracket_kernel_of,
    monomial_tuples,
    monomials,
    random_antisymmetric,
    random_gauge_chi,
    random_poly,
    reconstruct_bracket,
)
from moyal import scalars
from moyal.cocycle import (
    RawKernelExponent,
    cocycle_check,
    extract_antisymmetric_form,
    factorize,
)
from moyal.expressions import parse_coefficient, parse_poly
from moyal.lie import (
    RawLieKernel,
    StructuredLieKernel,
    apply_bracket_kernel,
    bidiff_coefficients,
    classify_h,
    theorem2_pipeline,
)
from moyal.linalg import Matrix
from moyal.operators import nc_mul, weyl_quantize
from moyal.poly import Poly, pair_space, phase_space, sigma_space
from moyal.star import (
    StarKernel,
    bilinear_pair_poly,
    bracket,
    classical_limit,
    coboundary,
    poisson,
    star,
    u_map,
)

ONE, MU, ZERO = scalars.ONE, scalars.MU, scalars.ZERO


def _report(number: int, text: str, started: float):
    print(f"ACCEPTANCE {number}: PASS (exact) [{time.time() - started:.1f}s] {text}")


def _random_star_kernels(seed: int, count: int):
    rng = random.Random(seed)
    kernels = []
    for k in range(count):
        n = 1 if k % 2 == 0 else 2
        kernels.append(
            StarKernel(
                n,
                random_gauge_chi(rng, n, 3, terms=2),
                random_antisymmetric(rng, 2 * n),
            )
        )
    return kernels


KERNELS_20 = _random_star_kernels(2024, 20)


def test_criterion_1_star_associativity():
    """(f*g)*h = f*(g*h) for 20 random kernels, triple degree sum <= 4."""
    started = time.time()
    checked = 0
    for kernel in KERNELS_20:
        space = phase_space(kernel.n)
        for f, g, h in monomial_tuples(space, 3, 4):
            assert star(star(f, g, kernel), h, kernel) == star(
                f, star(g, h, kernel), kernel
            )
            checked += 1
    assert time.time() - started < 60
    _report(1, f"associativity on {checked} monomial triples, 20 kernels", started)


def test_criterion_2_operator_oracle_homomorphism():
    """weyl_quantize(f * g) = weyl_quantize(f) . weyl_quantize(g), deg sum <= 5."""
    started = time.time()
    checked = 0
    for n in (1, 2):
        kernel = StarKernel.moyal(n)
        space = phase_space(n)
        for f, g in monomial_tuples(space, 2, 5):
            assert weyl_quantize(star(f, g, kernel)) == nc_mul(
                weyl_quantize(f), weyl_quantize(g)
            )
            checked += 1
    assert time.time() - started < 30
    _report(2, f"operator homomorphism on {checked} monomial pairs, n in (1, 2)", started)


def test_criterion_3_bracket_axioms():
    """Antisymmetry, Jacobi, and bracket(f, const) = 0 on the same ranges."""
    started = time.time()
    pairs = triples = consts = 0
    for kernel in KERNELS_20:
        space = phase_space(kernel.n)
        constant = Poly.constant(space, scalars.I + MU.scale_int(3))
        for f, g in monomial_tuples(space, 2, 4):
            assert bracket(f, g, kernel) == -bracket(g, f, kernel)
            pairs += 1
        for f, g, h in monomial_tuples(space, 3, 4):
            jac = (
                bracket(f, bracket(g, h, kernel), kernel)
                + bracket(g, bracket(h, f, kernel), kernel)
                + bracket(h, bracket(f, g, kernel), kernel)
            )
            assert jac.is_zero
            triples += 1
        for f in monomials(space, 4):
            assert bracket(f, constant, kernel).is_zero
            consts += 1
    _report(
        3,
        f"antisymmetry ({pairs} pairs), Jacobi ({triples} triples), "
        f"constants ({consts})",
        started,
    )


def test_criterion_4_factorization_round_trip():
    """100 random coboundary+bilinear kernels recover (chi, M) exactly."""
    started = time.time()
    rng = random.Random(4096)
    for k in range(100):
        n = 1 if k % 2 == 0 else 2
        chi = random_gauge_chi(rng, n, 3, terms=2)
        m = random_antisymmetric(rng, 2 * n)
        b = coboundary(chi) + bilinear_pair_poly(m, n)
        fact = factorize(RawKernelExponent(n, b))
        assert fact.chi == chi
        assert fact.m == m
        assert fact.rebuild() == b
    assert time.time() - started < 30
    _report(4, "100 randomized factorizations, exact (chi, M) recovery", started)


def test_criterion_5_cocycle_rigidity():
    """Passing kernels have bilinear antisymmetric parts; planted junk is rejected."""
    started = time.time()
    rng = random.Random(555)
    passing = rejected = 0
    pair = pair_space(1)
    for _ in range(60):
        b = random_poly(rng, pair, 3, terms=3)
        b = b - Poly.constant(pair, b.constant_term())
        raw = RawKernelExponent(1, b)
        violation = cocycle_check(raw)
        if violation is None:
            extract_antisymmetric_form(raw)  # must not raise: bidegree (1,1)
            passing += 1
        else:
            assert violation.monomial is not None
            rejected += 1
    # Structured cocycles always pass and always split.
    for k in range(20):
        n = 1 if k % 2 == 0 else 2
        chi = random_gauge_chi(rng, n, 3, terms=2)
        m = random_antisymmetric(rng, 2 * n)
        raw = RawKernelExponent(n, coboundary(chi) + bilinear_pair_poly(m, n))
        assert cocycle_check(raw) is None
        assert extract_antisymmetric_form(raw)[1] == m
        passing += 1
    # Planted non-cocycles are rejected with a concrete witness.
    for text in ("u1^2*v1^2", "u1*v1^2", "u1^3*v1 + u1*v1"):
        violation = cocycle_check(RawKernelExponent(1, parse_poly(text, pair)))
        assert violation is not None
        assert violation.monomial is not None
        rejected += 1
    assert passing >= 20 and rejected >= 3
    _report(
        5,
        f"{passing} passing kernels split bilinearly; {rejected} rejected "
        "with witnesses",
        started,
    )


def test_criterion_6_appendix_classifier():
    """The generating-series classifier on the frozen fixtures."""
    started = time.time()
    cases = [
        ("1, 1/6, 1/120, 1/5040", "sinh", "1", "1"),
        ("2, 3, 27/20", "sinh", "9", "2"),
        ("1, 0, 0, 0", "linear", None, "1"),
    ]
    for text, tag, mu2, scale in cases:
        got = classify_h([parse_coefficient(t) for t in text.split(",")])
        assert got.tag == tag
        if mu2 is not None:
            assert got.mu_squared == parse_coefficient(mu2)
        assert got.scale == parse_coefficient(scale)
    neither = classify_h([parse_coefficient(t) for t in ("1", "1", "0")])
    assert neither.tag == "neither"
    assert neither.witness_index == 5
    assert neither.expected == parse_coefficient("3/10")
    assert neither.found == ZERO
    _report(6, "sinh/linear/neither fixtures with exact mu^2 and witness index", started)


def test_criterion_7_classical_limit_is_poisson():
    """classical_limit(bracket(f, g)) = poisson(f, g), exactly."""
    started = time.time()
    checked = 0
    kernel = StarKernel.moyal(1)
    space = phase_space(1)
    for f in monomials(space, 4):
        for g in monomials(space, 4):
            assert classical_limit(bracket(f, g, kernel)) == poisson(f, g)
            checked += 1
    kernel2 = StarKernel.moyal(2)
    space2 = phase_space(2)
    for f, g in monomial_tuples(space2, 2, 4):
        assert classical_limit(bracket(f, g, kernel2)) == poisson(f, g)
        checked += 1
    _report(7, f"classical limit = Poisson bracket on {checked} pairs", started)


def test_criterion_8_ordering_isomorphism():
    """u_map intertwines dressed kernels with the symmetric one and inverts."""
    started = time.time()
    space = phase_space(1)
    moyal = StarKernel.moyal(1)
    checked = 0
    for chi_text in ("mu*u1*u2", "u1^2", "u1^3"):
        chi = parse_poly(chi_text, sigma_space(1))
        dressed = StarKernel(1, chi, moyal.m)
        for f in monomials(space, 4):
            assert u_map(u_map(f, chi), -chi) == f
        for f, g in monomial_tuples(space, 2, 4):
            lhs = u_map(star(f, g, dressed), chi)
            rhs = star(u_map(f, chi), u_map(g, chi), moyal)
            assert lhs == rhs
            checked += 1
    _report(8, f"intertwining + exact inversion for 3 chi's, {checked} pairs", started)


def _nondegenerate_omega(rng, n):
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        lam = scalars.Coefficient.from_int(rng.choice([1, -1, 2, 3]))
        rows[i][n + i] = lam
        rows[n + i][i] = -lam
    return Matrix(rows)


def _degenerate_omega_pair_one():
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[0][2] = ONE
    rows[2][0] = -ONE
    return Matrix(rows)


def test_criterion_9_theorem2_round_trip():
    """50 structured kernels: exact (chi, omega, class) recovery; verified centers."""
    started = time.time()
    rng = random.Random(909)
    fit_degree = 6
    recovered = degenerate = 0
    for k in range(50):
        degenerate_case = k % 5 == 4
        if degenerate_case:
            n = 2
            omega = _degenerate_omega_pair_one()
        else:
            n = 1 if k % 2 == 0 else 2
            omega = _nondegenerate_omega(rng, n)
        chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1, allow_i=False)
        if k % 2 == 0:
            a3 = parse_coefficient(rng.choice(["1/6", "mu^2/6", "3/2", "2*mu^2"]))
            series = (ONE, a3)  # sinh class: mu^2 = 6*a3
        else:
            series = (ONE,)  # linear class
        planted = StructuredLieKernel(n, chi, omega, series)
        raw = planted.expand(fit_degree)
        report = theorem2_pipeline(
            raw, fit_degree=fit_degree, center_degree=2, verify_degree=4
        )
        if degenerate_case:
            assert report.status == "degenerate"
            assert report.kernel_basis
            assert report.center_generators
            assert all(g.verified for g in report.center_generators)
            for gen in report.center_generators:
                for g in monomials(phase_space(n), 4):
                    assert apply_bracket_kernel(raw, gen.generator, g).is_zero
            degenerate += 1
        else:
            assert report.passed, report.failure
            assert report.chi == chi
            assert report.omega == omega
            planted_class = classify_h(list(series))
            assert report.h_class.tag == planted_class.tag
            assert report.h_class.mu_squared == planted_class.mu_squared
            assert report.h_series[0] == ONE
            if len(series) > 1:
                assert report.h_series[1] == series[1]
            recovered += 1
    assert time.time() - started < 60
    _report(
        9,
        f"{recovered} nondegenerate recoveries + {degenerate} verified "
        "degenerate centers",
        started,
    )


def test_criterion_10_bidiff_table():
    """Table reconstruction matches the package brackets on degree <= 3."""
    started = time.time()
    space = phase_space(1)
    pair = pair_space(1)
    wedge = parse_poly("v1*u2 - v2*u1", pair)
    poisson_kernel = RawLieKernel(1, wedge)
    table_poisson = bidiff_coefficients(poisson_kernel, 4, 4)
    moyal = StarKernel.moyal(1)
    sinh_kernel = bracket_kernel_of(moyal, truncation_degree=12)
    table_sinh = bidiff_coefficients(sinh_kernel, 6, 6)
    checked = 0
    for f in monomials(space, 3):
        for g in monomials(space, 3):
            assert reconstruct_bracket(table_poisson, f, g) == poisson(f, g)
            assert reconstruct_bracket(table_sinh, f, g) == bracket(f, g, moyal)
            checked += 1
    for table in (table_poisson, table_sinh):
        assert all(not v for (r, j, s, k), v in table.items() if r == 0)
        assert all(not v for (r, j, s, k), v in table.items() if s == 0)
    _report(10, f"table reconstruction on {checked} pairs; r = 0 rows vanish", started)
