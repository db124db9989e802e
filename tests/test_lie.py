"""Bracket-kernel analysis: axioms, omega, h classification, normal form."""

import random
from fractions import Fraction

import pytest

from conftest import monomials, random_gauge_chi
from moyal import scalars
from moyal.errors import DimensionMismatchError, MoyalError
from moyal.expressions import parse_coefficient, parse_poly, parse_series
from moyal.lie import (
    HClass,
    LieKernelError,
    RawLieKernel,
    StructuredLieKernel,
    apply_bracket_kernel,
    bidiff_coefficients,
    bracket_kernel_of,
    center_generators_from_kernel,
    classify_h,
    exp_truncated,
    extract_omega,
    jacobi_defect,
    lie_axiom_check,
    reconstruct_bracket,
    theorem2_pipeline,
)
from moyal.linalg import Matrix
from moyal.poly import Poly, pair_space, phase_space, sigma_space
from moyal.star import BiDiff, StarKernel, bracket, poisson

ONE, MU, ZERO = scalars.ONE, scalars.MU, scalars.ZERO
PAIR = pair_space(1)
WEDGE = parse_poly("v1*u2 - v2*u1", PAIR)  # sigma' ^ sigma for n = 1
SINH_TRUNC = WEDGE + (WEDGE**3).scale((MU * MU).scale_fraction(Fraction(1, 6)))


def raw(poly, n=1):
    return RawLieKernel(n, poly)


def coeffs(*texts):
    return [parse_coefficient(t) for t in texts]


class TestAxioms:
    def test_poisson_kernel_passes_exactly(self):
        report = lie_axiom_check(raw(WEDGE))
        assert report.passed
        assert report.jacobi_status == "exact"
        assert report.antisymmetric and report.constants_annihilate

    def test_even_power_fails_antisymmetry(self):
        report = lie_axiom_check(raw(WEDGE * WEDGE))
        assert not report.passed
        assert not report.antisymmetric

    def test_constants_condition(self):
        report = lie_axiom_check(raw(WEDGE + parse_poly("v1^2", PAIR)))
        assert not report.constants_annihilate

    def test_sinh_truncation_reports_mu4_defect(self):
        report = lie_axiom_check(raw(SINH_TRUNC), truncation_degree=6)
        assert report.passed
        assert report.jacobi_status == "truncation-defect"
        defect = jacobi_defect(raw(SINH_TRUNC))
        assert list(defect.mu_components()) == [4]
        # The defect sits far above the truncation degree and dies at mu = 0.
        assert report.defect_degree_range[0] > 6 + 2
        assert defect.mu_zero().is_zero

    def test_hard_violation_is_not_excused(self):
        bad = WEDGE + parse_poly("u1^2*v2^2 - v1^2*u2^2", PAIR)
        report = lie_axiom_check(raw(bad), truncation_degree=10)
        assert report.jacobi_status == "violation"
        assert not report.passed


class TestExtractOmega:
    def test_moyal_sinh_gives_minus_j(self):
        data = extract_omega(raw(SINH_TRUNC))
        assert data.omega == Matrix.canonical_symplectic(1, scalars.MINUS_ONE)
        assert data.rank == 2 and data.nondegenerate

    def test_consistency_with_product_kernel(self):
        # Cross-module sign: the bracket kernel of a product kernel (chi, M)
        # has omega = -M/mu.
        rng = random.Random(59)
        from conftest import random_antisymmetric

        for n in (1, 2):
            m = random_antisymmetric(rng, 2 * n, mu_degree=0)
            m = m.scale(MU)
            kernel = StarKernel(n, Poly.zero(sigma_space(n)), m)
            a = bracket_kernel_of(kernel, truncation_degree=6)
            data = extract_omega(a)
            assert data.omega == m.scale((-(MU)).inverse())

    def test_block_structure_n2(self):
        a = parse_poly("v1*u3 - v3*u1", pair_space(2))
        data = extract_omega(raw(a, n=2))
        assert data.rank == 2
        zero, one = ZERO, ONE
        assert data.kernel_basis == [
            (zero, one, zero, zero),
            (zero, zero, zero, one),
        ]

    def test_nonlinear_witness(self):
        a = parse_poly("u1^2*v2 - v1^2*u2", PAIR)
        with pytest.raises(LieKernelError) as err:
            extract_omega(raw(a))
        assert err.value.witness is not None

    def test_requires_constants_condition(self):
        with pytest.raises(LieKernelError):
            extract_omega(raw(parse_poly("v1^2", PAIR)))


class TestClassifyH:
    def test_sinh_taylor(self):
        got = classify_h(coeffs("1", "1/6", "1/120", "1/5040"))
        assert got.tag == "sinh"
        assert got.mu_squared == ONE
        assert got.scale == ONE

    def test_linear(self):
        got = classify_h(coeffs("1", "0", "0", "0"))
        assert got == HClass(tag="linear", scale=ONE)

    def test_scaled_sinh(self):
        got = classify_h(coeffs("2", "3", "27/20"))
        assert got.tag == "sinh"
        assert got.mu_squared == scalars.Coefficient.from_int(9)
        assert got.scale == scalars.Coefficient.from_int(2)

    def test_neither_with_predicted_index(self):
        got = classify_h(coeffs("1", "1", "0"))
        assert got.tag == "neither"
        assert got.witness_index == 5
        assert got.expected == scalars.Coefficient.from_ints([3], (), 10)
        assert got.found == ZERO

    def test_symbolic_mu(self):
        got = classify_h(parse_series("1, mu^2/6, mu^4/120"))
        assert got.tag == "sinh"
        assert got.mu_squared == MU * MU

    def test_scale_equivariance(self):
        base = coeffs("1", "1/6", "1/120")
        for c in coeffs("2", "-1/3", "mu"):
            scaled = [c * a for a in base]
            got = classify_h(scaled)
            assert got.tag == "sinh"
            assert got.mu_squared == ONE
            assert got.scale == c

    def test_degenerate_and_error_cases(self):
        assert classify_h([ZERO, ZERO]).tag == "zero"
        leading_zero = classify_h([ZERO, ONE])
        assert leading_zero.tag == "neither" and leading_zero.witness_index == 3
        assert classify_h([scalars.Coefficient.from_int(5)]).tag == "linear"
        with pytest.raises(ValueError):
            classify_h([])


class TestTheorem2:
    def test_sinh_truncation_kernel(self):
        report = theorem2_pipeline(raw(SINH_TRUNC), fit_degree=6)
        assert report.status == "moyal-class"
        assert report.chi == Poly.zero(sigma_space(1))
        assert report.h_class.tag == "sinh"
        assert report.h_class.mu_squared == MU * MU

    def test_dressed_poisson_recovers_chi_and_linear_one(self):
        chi = parse_poly("u1^2", sigma_space(1))
        omega = Matrix([[ZERO, ONE], [-ONE, ZERO]])
        planted = StructuredLieKernel(1, chi, omega, (ONE,))
        report = theorem2_pipeline(planted.expand(6), fit_degree=6)
        assert report.status == "poisson-class"
        assert report.chi == chi
        assert report.h_class.tag == "linear"
        assert report.h_class.scale == ONE

    def test_construct_then_recover(self):
        rng = random.Random(61)
        for _ in range(6):
            n = rng.choice([1, 2])
            chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1, allow_i=False)
            omega = _random_nondegenerate_omega(rng, n)
            if rng.random() < 0.5:
                series = (ONE, _random_mu2(rng))  # sinh class
            else:
                series = (ONE,)  # linear class
            planted = StructuredLieKernel(n, chi, omega, series)
            raw_kernel = planted.expand(6)
            report = theorem2_pipeline(raw_kernel, fit_degree=6)
            assert report.passed, report.failure
            assert report.chi == chi
            assert report.omega == omega
            expected_a3 = series[1] if len(series) > 1 else ZERO
            assert report.h_series[0] == ONE
            if len(report.h_series) > 1:
                assert report.h_series[1] == expected_a3

    def test_degenerate_center_generators(self):
        a = parse_poly("v1*u3 - v3*u1", pair_space(2))
        report = theorem2_pipeline(raw(a, n=2), fit_degree=4, center_degree=2,
                                   verify_degree=3)
        assert report.status == "degenerate"
        gens = {str(g.generator) for g in report.center_generators}
        assert gens == {"1", "q2", "p2", "q2^2", "q2*p2", "p2^2"}
        assert all(g.verified for g in report.center_generators)

    def test_neither_on_unfittable_kernel(self):
        # Antisymmetric, Jacobi-passing at mu order 1, but not of normal form:
        # a degree-3 term cannot come from any (chi, h) pair.
        bad = WEDGE + parse_poly("mu*(u1^2*v2 - v1^2*u2)", PAIR)
        report = theorem2_pipeline(raw(bad), fit_degree=4)
        assert report.status in ("neither", "axioms-failed")

    def test_axioms_failed_status(self):
        report = theorem2_pipeline(raw(WEDGE * WEDGE), fit_degree=4)
        assert report.status == "axioms-failed"


def _random_nondegenerate_omega(rng, n):
    # Canonical pairing with random nonzero rational pair scalings.
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        lam = scalars.Coefficient.from_int(rng.choice([1, 2, -1, 3]))
        rows[i][n + i] = lam
        rows[n + i][i] = -lam
    return Matrix(rows)


def _random_mu2(rng):
    # A nonzero a3 = mu^2/6-style entry, rational or mu-quadratic.
    choice = rng.choice(["1/6", "3/2", "mu^2/6", "2*mu^2/3"])
    return parse_series(choice)[0]


class TestBidiffTable:
    def test_poisson_entries(self):
        table = bidiff_coefficients(raw(WEDGE), 2, 2)
        assert table[(1, 1, 1, 0)] == ONE
        assert table[(1, 0, 1, 1)] == scalars.MINUS_ONE

    def test_r_zero_rows_vanish(self):
        table = bidiff_coefficients(raw(SINH_TRUNC), 4, 4)
        assert all(not v for (r, j, s, k), v in table.items() if r == 0)
        assert all(not v for (r, j, s, k), v in table.items() if s == 0)

    def test_sinh_parity(self):
        table = bidiff_coefficients(raw(SINH_TRUNC), 5, 5)
        assert all(not v for (r, j, s, k), v in table.items() if (r + s) % 2 == 1)

    def test_reconstruction_matches_poisson(self):
        table = bidiff_coefficients(raw(WEDGE), 4, 4)
        sp = phase_space(1)
        for f in monomials(sp, 3):
            for g in monomials(sp, 3):
                assert reconstruct_bracket(table, f, g) == poisson(f, g)

    def test_reconstruction_matches_moyal_bracket(self):
        kernel = StarKernel.moyal(1)
        a = bracket_kernel_of(kernel, truncation_degree=12)
        table = bidiff_coefficients(a, 6, 6)
        sp = phase_space(1)
        for f in monomials(sp, 3):
            for g in monomials(sp, 3):
                assert reconstruct_bracket(table, f, g) == bracket(f, g, kernel)

    def test_rejects_higher_dimension(self):
        with pytest.raises(ValueError):
            bidiff_coefficients(raw(parse_poly("v1*u3 - v3*u1", pair_space(2)), n=2), 2, 2)


# (v1*u2 - v2*u1)*(1 + u1*v1) breaks Jacobi; at fit degree -3 it read "poisson-class".
NOT_LIE = raw(WEDGE * parse_poly("1 + u1*v1", PAIR))


@pytest.mark.parametrize(
    "call",
    [
        lambda: theorem2_pipeline(NOT_LIE, -3),
        lambda: theorem2_pipeline(NOT_LIE, 4, center_degree=-1),
        lambda: theorem2_pipeline(NOT_LIE, 4, verify_degree=-1),
        lambda: lie_axiom_check(NOT_LIE, truncation_degree=-1),
        lambda: exp_truncated(parse_poly("u1", sigma_space(1)), -1),
    ],
    ids=["fit", "center", "verify", "truncation", "exp"],
)
def test_negative_degrees_are_refused(call):
    with pytest.raises(ValueError, match="must be non-negative"):
        call()


def test_not_lie_kernel_is_a_violation_untruncated():
    assert lie_axiom_check(NOT_LIE).jacobi_status == "violation"


def test_structured_kernel_omega_must_be_2n_by_2n():
    chi = Poly.zero(sigma_space(2))
    with pytest.raises(DimensionMismatchError, match="omega must be 2n x 2n"):
        StructuredLieKernel(1, Poly.zero(sigma_space(1)), Matrix([[ZERO]]), (ONE,))
    with pytest.raises(DimensionMismatchError, match="omega must be 2n x 2n"):
        StructuredLieKernel(2, chi, Matrix.canonical_symplectic(1), (ONE,))
    StructuredLieKernel(2, chi, Matrix.canonical_symplectic(2), (ONE,)).expand(4)


def test_matrix_entries_must_be_coefficients():
    with pytest.raises(TypeError, match="must be Coefficients"):
        Matrix([[1, 2], [3, 4]])
    assert Matrix([[ONE, ZERO], [ZERO, ONE]]).rank() == 2


class TestBracketApplication:
    def test_single_application_matches_star_bracket(self):
        kernel = StarKernel.moyal(1)
        a = bracket_kernel_of(kernel, truncation_degree=12)
        sp = phase_space(1)
        for f, g in ((Poly.monomial(sp, (3, 0)), Poly.monomial(sp, (0, 3))),
                     (Poly.monomial(sp, (2, 1)), Poly.monomial(sp, (1, 2)))):
            assert apply_bracket_kernel(a, f, g) == bracket(f, g, kernel)

    def test_structured_kernels_satisfy_axioms_to_truncation(self):
        rng = random.Random(67)
        for _ in range(4):
            chi = random_gauge_chi(rng, 1, 2, terms=1, mu_degree=0, allow_i=False)
            omega = _random_nondegenerate_omega(rng, 1)
            planted = StructuredLieKernel(1, chi, omega, (ONE, _random_mu2(rng)))
            report = lie_axiom_check(planted.expand(6), truncation_degree=6)
            assert report.antisymmetric
            assert report.constants_annihilate
            assert report.jacobi_status in ("exact", "truncation-defect")


@pytest.mark.parametrize(
    "kernel, applies_per_monomial",
    [
        ("v1*u3 - v3*u1", 1),
        ("v1*u3 - v3*u1 + u2*v2^2 - v2*u2^2", 1),
        ("u1*v3", 2),
        ("u1*v2", 2),
    ],
)
def test_centre_verification_applies_both_sides_only_when_needed(
    monkeypatch, kernel, applies_per_monomial
):
    """An antisymmetric kernel has apply(g, f) = -apply(f, g), so one side is
    applied per test monomial; the generators and flags are the two-sided ones."""
    space = phase_space(2)
    a = raw(parse_poly(kernel, pair_space(2)), n=2)
    tests = monomials(space, 3)
    expected = [
        (gen, all(
            apply_bracket_kernel(a, gen, g).is_zero and apply_bracket_kernel(a, g, gen).is_zero
            for g in tests
        ))
        for gen in (Poly.one(space), parse_poly("q2", space), parse_poly("q2^2", space))
    ]
    calls = []
    apply = BiDiff.apply

    def counting(self, f, g):
        calls.append(1)
        return apply(self, f, g)

    monkeypatch.setattr(BiDiff, "apply", counting)
    got = center_generators_from_kernel(a, [(ZERO, ONE, ZERO, ZERO)], 2, 3)
    assert [(c.generator, c.verified) for c in got] == expected
    if all(verified for _, verified in expected):
        assert len(calls) == applies_per_monomial * len(expected) * len(tests)
    else:
        assert not all(verified for _, verified in expected[1:])
