"""Kernel-exponent analysis: cocycle checks, factorization, center detection."""

import random
from fractions import Fraction

import pytest

from conftest import monomials, oracle_evaluate, random_antisymmetric, random_gauge_chi, random_poly
from moyal import scalars
from moyal.cocycle import (
    CENTER_MONOMIAL_LIMIT,
    RawKernelExponent,
    center_basis,
    chi_extract,
    cocycle_check,
    cocycle_defect,
    extract_antisymmetric_form,
    factorize,
)
from moyal.errors import FactorizationError
from moyal.expressions import parse_poly
from moyal.linalg import Matrix
from moyal.poly import Poly, pair_space, phase_space, sigma_space
from moyal.star import StarKernel, bilinear_pair_poly, coboundary, slot_degrees, star, swap_slots

ONE, MU = scalars.ONE, scalars.MU
PAIR = pair_space(1)


def raw(text, n=1):
    return RawKernelExponent(n, parse_poly(text, pair_space(n)))


def first_offence(p, offends):
    """The first term of `p.sorted_terms()` that `offends`: the witness a
    scan in the term order would raise."""
    return next((exps, coeff) for exps, coeff in p.sorted_terms() if offends(slot_degrees(exps, 2)))


def value_at(p, point):
    """p at an int point, each coordinate a field element."""
    return oracle_evaluate(p, [scalars.Coefficient.from_int(x) for x in point])


class TestCocycleCheck:
    def test_bilinear_forms_pass(self):
        assert cocycle_check(raw("mu*(v1*u2 - v2*u1)")) is None
        # Any bilinear form is a cocycle, antisymmetric or not.
        assert cocycle_check(raw("u1*v1 + 2*u2*v1")) is None

    def test_coboundaries_pass(self):
        assert cocycle_check(raw("u1^3 + v1^3 - (u1+v1)^3")) is None

    def test_violation_with_witness(self):
        violation = cocycle_check(raw("u1^2*v1^2"))
        assert violation is not None
        assert violation.stage == "cocycle"
        assert violation.point is not None
        assert violation.lhs != violation.rhs

    def test_violation_sides_at_frozen_point(self):
        # At u = (1,0), v = (2,0), w = (3,0) the two sides of the identity
        # are 1*4 + 9*9 = 85 and 4*9 + 1*25 = 61.
        b = parse_poly("u1^2*v1^2", PAIR)
        c = scalars.Coefficient.from_int
        lhs = value_at(b, [1, 0, 2, 0]) + value_at(b, [3, 0, 3, 0])
        rhs = value_at(b, [2, 0, 3, 0]) + value_at(b, [1, 0, 5, 0])
        assert lhs == c(85) and rhs == c(61)
        defect = cocycle_defect(raw("u1^2*v1^2"))
        value = value_at(defect, [1, 0, 2, 0, 3, 0])
        assert value == rhs - lhs == c(-24)

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_sides_are_the_field_values(self, seed):
        """The sides of the witness, summed on the ints of b's numerators and
        divided once, are the values of b itself in the field, for b with
        i parts, rational and mu-denominators."""
        rng = random.Random(f"witness-{seed}")
        n = 1 + seed % 2
        width = 2 * n
        b = random_poly(rng, pair_space(n), 5, terms=8, mu_degree=2, allow_i=True)
        b = Poly(b.space, {e: c for e, c in b.terms.items() if sum(e[:width]) and sum(e[width:]) and sum(e) > 2})
        b = b + Poly.monomial(b.space, (2,) + (0,) * (width - 1) + (1,) + (0,) * (width - 1), ONE)
        b = b.scale_fraction(Fraction(rng.randint(1, 4), rng.randint(2, 5)))
        if seed % 4 > 1:
            b = b + b.scale((MU + scalars.Coefficient.from_int(rng.randint(1, 3))).inverse())
        violation = cocycle_check(RawKernelExponent(n, b))
        assert violation.stage == "cocycle"
        point = violation.point
        u, v, w = point[:width], point[width : 2 * width], point[2 * width :]
        uv = tuple(x + y for x, y in zip(u, v))
        vw = tuple(x + y for x, y in zip(v, w))
        assert violation.lhs == value_at(b, u + v) + value_at(b, uv + w)
        assert violation.rhs == value_at(b, v + w) + value_at(b, u + vw)
        assert violation.lhs != violation.rhs

    def test_normalization_violation(self):
        violation = cocycle_check(raw("u1^2 + u1*v1"))
        assert violation is not None and violation.stage == "normalization"

    @pytest.mark.parametrize(
        "text",
        [
            # Two offences of degree 2: the larger exponent tuple leads.
            "u1^2 - 2*u2^2 + u1*v1",
            # An empty v-slot against an empty u-slot at one degree, under a higher valid term.
            "v1*v2 + 5*u2^2/(mu + 1) + u1*v1^2*v2",
            # Degree first: v1^3 and v2^3 lead u1^2, the larger tuple first.
            "u1^2 + v2^3 - 4*i*v1^3 + u1*v1",
        ],
    )
    def test_the_leading_offence_is_the_normalization_witness(self, text):
        kernel = raw(text)
        violation = cocycle_check(kernel)
        assert violation.stage == "normalization"
        assert (violation.monomial, violation.coefficient) == first_offence(kernel.b, lambda degrees: 0 in degrees)
        with pytest.raises(FactorizationError, match=r"normalization failure at monomial") as err:
            factorize(kernel)
        assert violation.monomial_str() in str(err.value)

    def test_requires_zero_at_origin(self):
        with pytest.raises(ValueError):
            RawKernelExponent(1, parse_poly("1 + u1*v1", PAIR))


class TestExtract:
    def test_moyal_pattern(self):
        _, m = extract_antisymmetric_form(raw("mu*(v1*u2 - v2*u1)"))
        assert m == Matrix.canonical_symplectic(1, MU)
        data = factorize(raw("mu*(v1*u2 - v2*u1)"))
        assert data.rank == 2
        assert data.pairings == [MU]
        assert data.kernel_basis == []
        assert data.uniform_pairing

    def test_symmetric_input_has_zero_m(self):
        chi = parse_poly("u1^2", sigma_space(1))
        symmetric, m = extract_antisymmetric_form(RawKernelExponent(1, coboundary(chi)))
        assert m.is_zero()
        data = factorize(RawKernelExponent(1, coboundary(chi)))
        assert data.rank == 0
        assert len(data.kernel_basis) == 2
        assert symmetric == parse_poly("-2*u1*v1", PAIR)

    def test_block_structure_n2(self):
        data = factorize(raw("mu*(v1*u2 - v2*u1)", n=2))
        assert data.rank == 2
        zero, one = scalars.ZERO, scalars.ONE
        assert data.kernel_basis == [
            (zero, zero, one, zero),
            (zero, zero, zero, one),
        ]

    def test_darboux_congruence(self):
        rng = random.Random(41)
        # A degenerate M at n = 2 (Pfaffian m01*m23 - m02*m13 + m03*m12 = 0):
        # rank 2, two kernel vectors.
        zero, two = scalars.ZERO, ONE.scale_int(2)
        degenerate = Matrix(
            [[zero, MU, two, zero], [-MU, zero, zero, zero], [-two, zero, zero, zero], [zero] * 4]
        )
        ms = [(n, random_antisymmetric(rng, 2 * n)) for n in (1, 2) for _ in range(5)]
        for n, m in ms + [(2, degenerate)]:
            b = bilinear_pair_poly(m, n)
            data = factorize(RawKernelExponent(n, b))
            s = data.darboux_basis
            canonical = s.transpose() * m * s
            r = len(data.pairings)
            for i in range(2 * n):
                for j in range(2 * n):
                    expected = scalars.ZERO
                    if i < r and j == r + i:
                        expected = data.pairings[i]
                    elif j < r and i == r + j:
                        expected = -data.pairings[j]
                    assert canonical[i, j] == expected
        assert (data.rank, len(data.kernel_basis), data.nondegenerate) == (2, 2, False)

    def test_non_bilinear_reported_as_contradiction(self):
        # Reachable only by skipping cocycle_check.
        with pytest.raises(FactorizationError) as err:
            extract_antisymmetric_form(raw("u1^2*v1 - v1^2*u1"))
        assert err.value.stage == "extract_antisymmetric_form"

    @pytest.mark.parametrize(
        "text",
        [
            # b_a = (u1^2*v1 - u1*v1^2) / 2: two offences of degree 3.
            "u1^2*v1",
            # Four of degree 3 around a bilinear part that does not offend.
            "u1^2*v1 + u2^3/(mu - 2) + mu*u1*v2",
            # Degree first: the degree-4 terms lead the degree-3 ones.
            "u1*v1^2 + i*u2*v2^3 + v1^4",
        ],
    )
    def test_the_leading_offence_is_the_witness(self, text):
        kernel = raw(text)
        b_a = (kernel.b - swap_slots(kernel.b)).scale_fraction(Fraction(1, 2))
        witness = first_offence(b_a, lambda degrees: degrees != (1, 1))
        with pytest.raises(FactorizationError) as err:
            extract_antisymmetric_form(kernel)
        assert err.value.witness == witness
        assert str(Poly.monomial(PAIR, *witness)) in str(err.value)


class TestChiExtract:
    def test_quadratic(self):
        assert chi_extract(parse_poly("-2*u1*v1", PAIR)) == parse_poly(
            "u1^2", sigma_space(1)
        )

    def test_cubic(self):
        b_s = parse_poly("-3*u1^2*v1 - 3*u1*v1^2", PAIR)
        assert chi_extract(b_s) == parse_poly("u1^3", sigma_space(1))

    def test_mixed_quadratic(self):
        b_s = parse_poly("u1*v2 + u2*v1", PAIR)
        assert chi_extract(b_s) == parse_poly("-u1*u2", sigma_space(1))

    def test_residual_witness(self):
        with pytest.raises(FactorizationError) as err:
            chi_extract(parse_poly("u1^2*v1^2", PAIR))
        assert err.value.stage == "chi_extract"

    def test_every_symmetric_bilinear_is_a_coboundary(self):
        rng = random.Random(43)
        for _ in range(10):
            size = 2
            entries = [
                [scalars.Coefficient.from_int(rng.randint(-3, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            sym = [
                [entries[i][j] + entries[j][i] for j in range(size)]
                for i in range(size)
            ]
            b_s = bilinear_pair_poly(Matrix(sym), 1)
            chi = chi_extract(b_s)
            assert chi.total_degree() <= 2
            assert coboundary(chi) == b_s


class TestFactorize:
    def test_round_trip_fixture(self):
        chi = parse_poly("u1^2", sigma_space(1))
        b = coboundary(chi) + parse_poly("mu*(v1*u2 - v2*u1)", PAIR)
        fact = factorize(RawKernelExponent(1, b))
        assert fact.chi == chi
        assert fact.pairings == [MU]
        assert fact.rank == 2
        assert fact.rebuild() == b
        assert fact.nondegenerate

    def test_pure_coboundary(self):
        chi = parse_poly("u1^3", sigma_space(1))
        fact = factorize(RawKernelExponent(1, coboundary(chi)))
        assert fact.chi == chi
        assert fact.m.is_zero()
        assert fact.rank == 0

    def test_error_propagates_with_stage(self):
        with pytest.raises(FactorizationError) as err:
            factorize(raw("u1^2*v1^2"))
        assert err.value.stage == "cocycle_check"

    def test_gauge_linear_part_is_invisible(self):
        # Adding a linear form to chi does not change the coboundary, so the
        # gauge-fixed extraction is canonical.
        chi = parse_poly("u1^2 + u1*u2", sigma_space(1))
        linear = parse_poly("3*u1 - mu*u2", sigma_space(1))
        assert coboundary(chi + linear) == coboundary(chi)
        fact = factorize(RawKernelExponent(1, coboundary(chi + linear)))
        assert fact.chi == chi

    def test_randomized_round_trips(self):
        rng = random.Random(47)
        for _ in range(10):
            n = rng.choice([1, 2])
            chi = random_gauge_chi(rng, n, 3, terms=2)
            m = random_antisymmetric(rng, 2 * n)
            b = coboundary(chi) + bilinear_pair_poly(m, n)
            fact = factorize(RawKernelExponent(n, b))
            assert fact.chi == chi
            assert fact.m == m
            assert fact.rebuild() == b

    def test_cocycle_implies_bilinear_antisymmetric_part(self):
        # Random polynomials that happen to pass the check always split.
        rng = random.Random(53)
        passed = 0
        for _ in range(40):
            b = random_poly(rng, PAIR, 3, terms=3)
            b = b - Poly.constant(PAIR, b.constant_term())
            try:
                raw_b = RawKernelExponent(1, b)
            except ValueError:
                continue
            if cocycle_check(raw_b) is None:
                extract_antisymmetric_form(raw_b)  # must not raise
                passed += 1
        # The structured generator keeps us honest: planted cocycles pass.
        chi = random_gauge_chi(rng, 1, 3)
        m = random_antisymmetric(rng, 2)
        planted = RawKernelExponent(1, coboundary(chi) + bilinear_pair_poly(m, 1))
        assert cocycle_check(planted) is None
        extract_antisymmetric_form(planted)


class TestCenterBasis:
    def test_trivial_center_for_moyal(self):
        basis = center_basis(raw("mu*(v1*u2 - v2*u1)"), max_degree=3)
        assert basis == [Poly.one(phase_space(1))]

    def test_degenerate_pair_block(self):
        basis = center_basis(raw("mu*(v1*u2 - v2*u1)", n=2), max_degree=2)
        sp = phase_space(2)
        expected = {"1", "p1", "p2", "p1^2", "p1*p2", "p2^2"}
        assert {str(p) for p in basis} == expected
        kernel = factorize(raw("mu*(v1*u2 - v2*u1)", n=2)).as_star_kernel()
        for f in basis:
            for g in monomials(sp, 2):
                assert star(f, g, kernel) == star(g, f, kernel)

    def test_abelian_when_m_is_zero(self):
        chi = parse_poly("u1^2", sigma_space(1))
        basis = center_basis(RawKernelExponent(1, coboundary(chi)), max_degree=2)
        # Everything commutes: all monomials up to the bound appear.
        assert {str(p) for p in basis} == {"1", "q1", "p1", "q1^2", "q1*p1", "p1^2"}

    def test_enumeration_limit_is_checked_before_building(self):
        # C(10 + 6, 6) = 8008 monomials fit the limit and C(11 + 6, 6) = 12376 do not.
        assert CENTER_MONOMIAL_LIMIT == 10_000
        zero = raw("0", n=3)
        assert len(center_basis(zero, max_degree=2)) == 28
        with pytest.raises(ValueError, match="12376 monomials"):
            center_basis(zero, max_degree=11)

    def test_negative_degree_is_refused(self):
        with pytest.raises(ValueError, match="max_degree must be non-negative"):
            center_basis(raw("mu*(v1*u2 - v2*u1)"), max_degree=-1)
