"""Bracket-kernel analysis: axioms, omega, h classification, normal form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    bracket_kernel_of,
    monomials,
    oracle_center_generators,
    oracle_dressed_powers,
    oracle_fit_structured,
    random_antisymmetric,
    random_coefficient,
    random_gauge_chi,
    reconstruct_bracket,
    sinh_series,
)
from moyal import lie, scalars
from moyal.errors import DimensionMismatchError, MoyalError
from moyal.expressions import parse_coefficient, parse_poly, parse_series
from moyal.lie import (
    HClass,
    LieKernelError,
    RawLieKernel,
    StructuredLieKernel,
    _dressed_powers,
    _fit_structured,
    apply_bracket_kernel,
    bidiff_coefficients,
    center_generators_from_kernel,
    classify_h,
    extract_omega,
    jacobi_defect,
    lie_axiom_check,
    theorem2_pipeline,
)
from moyal.cocycle import RawKernelExponent, dual_monomials
from moyal.linalg import Matrix
from moyal.poly import DiffOp, Poly, exp_blocks, lift_substitutions, pair_space, phase_space, sigma_space
from moyal.star import BiDiff, StarKernel, bilinear_pair_poly, bracket, poisson, slot_degrees, slot_sum

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
        omega = extract_omega(raw(SINH_TRUNC))
        assert omega == Matrix.canonical_symplectic(1, scalars.MINUS_ONE)
        assert omega.rank() == 2 and omega.nullspace() == []

    def test_consistency_with_product_kernel(self):
        # Cross-module sign: the bracket kernel of a product kernel (chi, M)
        # has omega = -M/mu.
        rng = random.Random(59)
        for n in (1, 2):
            m = random_antisymmetric(rng, 2 * n, mu_degree=0)
            m = m.scale(MU)
            kernel = StarKernel(n, Poly.zero(sigma_space(n)), m)
            a = bracket_kernel_of(kernel, truncation_degree=6)
            assert extract_omega(a) == m.scale((-(MU)).inverse())

    def test_block_structure_n2(self):
        a = parse_poly("v1*u3 - v3*u1", pair_space(2))
        omega = extract_omega(raw(a, n=2))
        assert omega.rank() == 2
        zero, one = ZERO, ONE
        assert omega.nullspace() == [
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

    @pytest.mark.parametrize(
        "offences",
        [
            # A(0, sigma') != 0 at degree 2, not linear in the second slot at degree 4.
            "v1^2 + 3*u1*v1^2*v2",
            # The other way round: the degree-4 term is the one with u-degree 0.
            "2*v1^3*v2 + u2*v2^2",
            # Two offences of one kind at one degree: the larger exponent tuple leads.
            "u1*v2^2 - 5*u2*v1^2",
        ],
    )
    def test_the_leading_offence_is_the_witness(self, offences):
        """The one-pass scan raises on the offending term that a scan of
        `sorted_terms` meets first, with the same message."""
        a = WEDGE + parse_poly(offences, PAIR)
        expected = None
        for exps, coeff in a.sorted_terms():
            u_deg, v_deg = slot_degrees(exps, 2)
            if u_deg == 0 or (u_deg == 1 and v_deg != 1):
                expected = (exps, coeff), u_deg == 0
                break
        (witness, constant) = expected
        with pytest.raises(LieKernelError) as err:
            extract_omega(raw(a))
        assert err.value.witness == witness
        reason = "A(0, sigma') != 0" if constant else "not linear in the second slot"
        assert reason in str(err.value)
        assert str(Poly.monomial(PAIR, *witness)) in str(err.value)


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

    @pytest.mark.parametrize(
        "n, fit_degree",
        [(1, fit) for fit in range(6, 15)] + [(2, fit) for fit in range(6, 11)] + [(3, 6), (3, 7), (3, 8)],
    )
    def test_full_sinh_series_round_trips(self, n, fit_degree):
        """A planted kernel whose h is the whole sinh series through the fit
        degree, not only (a1, a3), comes back with its chi, omega and series."""
        rng = random.Random(f"full-sinh-{n}-{fit_degree}")
        chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1, allow_i=False)
        omega = _random_nondegenerate_omega(rng, n)
        mu_squared = rng.choice([MU * MU, scalars.Coefficient.from_int(rng.choice([12, -3]))])
        count = len(range(1, fit_degree // 2 + 1, 2))
        series = sinh_series(mu_squared, count)
        raw_kernel = StructuredLieKernel(n, chi, omega, series).expand(fit_degree)
        report = theorem2_pipeline(raw_kernel, fit_degree=fit_degree)
        assert report.status == "moyal-class", report.failure
        assert report.axioms.jacobi_status == "truncation-defect"
        assert report.chi == chi
        assert report.omega == omega
        assert report.h_series == series
        assert report.h_class.mu_squared == mu_squared

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

    @pytest.mark.parametrize(
        "n, kernel, witness, chi",
        [
            # The bidegree-(2, 2) part mu*u1^2*v2^2 is not a multiple of w:
            # the fit stops at the remainder of the division by w.
            (
                2,
                "u1*v3 - u3*v1 + u2*v4 - u4*v2 + mu*(u1^2*v2^2 - v1^2*u2^2)",
                ((2, 0, 0, 0, 0, 2, 0, 0), "mu"),
                "0",
            ),
            # For n = 1 that part is mu*u1*u2 times w, which gives chi; the
            # degree-4 residual of the reconstruction is left over.
            (
                1,
                "u1*v2 - u2*v1 + mu*(u1^2*v2^2 - v1^2*u2^2)",
                ((2, 1, 1, 2), "-2*mu^2"),
                "-mu*u1*u2",
            ),
        ],
        ids=["remainder", "residual"],
    )
    def test_fit_failure_exits(self, n, kernel, witness, chi):
        report = theorem2_pipeline(raw(parse_poly(kernel, pair_space(n)), n=n), fit_degree=6)
        assert report.axioms.passed
        assert report.status == "neither"
        assert report.failure == "kernel is not of coboundary-dressed h(w) form at this degree"
        assert report.residual_witness == (witness[0], parse_coefficient(witness[1]))
        assert report.chi == parse_poly(chi, sigma_space(n))
        assert report.h_series is None and report.h_class is None

    def test_axioms_failed_status(self):
        report = theorem2_pipeline(raw(WEDGE * WEDGE), fit_degree=4)
        assert report.status == "axioms-failed"

    @pytest.mark.parametrize(
        "n, kernel, fit_degree, status, rank, nullity",
        [
            (1, "v1*u2 - v2*u1 + mu^2/6*(v1*u2 - v2*u1)^3", 6, "moyal-class", 2, 0),
            (1, "v1*u2 - v2*u1", 4, "poisson-class", 2, 0),
            (2, "v1*u3 - v3*u1", 4, "degenerate", 2, 2),
            # The fit fails after omega is read off.
            (2, "u1*v3 - u3*v1 + u2*v4 - u4*v2 + mu*(u1^2*v2^2 - v1^2*u2^2)", 6, "neither", 4, 0),
            # Jacobi holds through degree 3, but no omega can be read off.
            (1, "u1^2*v2 - v1^2*u2", 3, "neither", None, 0),
            (1, "(v1*u2 - v2*u1)^2", 4, "axioms-failed", None, 0),
        ],
        ids=["moyal", "poisson", "degenerate", "neither-fit", "neither-omega", "axioms-failed"],
    )
    def test_rank_is_read_off_omega_and_its_kernel(self, n, kernel, fit_degree, status, rank, nullity):
        report = theorem2_pipeline(raw(parse_poly(kernel, pair_space(n)), n=n), fit_degree=fit_degree)
        assert report.status == status
        assert (report.rank, len(report.kernel_basis)) == (rank, nullity)
        if report.omega is not None:
            assert report.kernel_basis == report.omega.nullspace()


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


def _planted_series(rng, kind):
    if kind == "linear":
        return (ONE,)
    if kind == "sinh":
        mu2 = rng.choice([MU * MU, scalars.Coefficient.from_int(rng.choice([1, 6, -3]))])
        return (ONE, mu2.scale_fraction(Fraction(1, 6)), (mu2 * mu2).scale_fraction(Fraction(1, 120)))
    return (ONE, random_coefficient(rng, allow_i=False), random_coefficient(rng, allow_i=False))


def _added_term(rng, n, exit_kind, fit_degree):
    """A monomial of degree d <= max(fit_degree, 4) that the fit cannot absorb:
    of bidegree (2, d-2), the part divided by w, or of another bidegree."""
    width = 2 * n
    d = rng.randint(4 if exit_kind == "remainder" else 3, max(fit_degree, 4))
    u_degree = 2 if exit_kind == "remainder" else rng.choice([1, 3, d - 1])
    exps = [0] * (2 * width)
    for slot, degree in ((0, u_degree), (width, d - u_degree)):
        for _ in range(degree):
            exps[slot + rng.randrange(width)] += 1
    return Poly.monomial(pair_space(n), tuple(exps), random_coefficient(rng, allow_i=False))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2]),
    st.booleans(),
    st.sampled_from(["linear", "sinh", "arbitrary"]),
    st.sampled_from(range(9)),
    st.sampled_from([None, "remainder", "residual"]),
)
def test_fit_matches_the_degreewise_oracle(seed, n, chi_mu, h_kind, fit_degree, exit_kind):
    """`_fit_structured` against the degreewise loop it replaced, on planted
    kernels with or without a term that no (chi, h) fits; the partial series
    of a failed fit is not compared."""
    rng = random.Random(seed)
    chi = random_gauge_chi(rng, n, 4, terms=2, mu_degree=int(chi_mu), allow_i=False)
    omega = _random_nondegenerate_omega(rng, n)
    a = StructuredLieKernel(n, chi, omega, _planted_series(rng, h_kind)).expand(fit_degree).a
    if exit_kind is not None:
        a = a + _added_term(rng, n, exit_kind, fit_degree)
    w = bilinear_pair_poly(omega.transpose(), n)
    got_chi, got_series, got_witness = _fit_structured(a, n, w, fit_degree)
    chi_ref, series_ref, witness_ref = oracle_fit_structured(a, n, w, fit_degree)
    assert got_chi == chi_ref
    assert got_witness == witness_ref
    if witness_ref is None:
        assert got_series == series_ref


# Scalings of chi and w: rationals, mu, i and mu-denominators, one with a root at mu = 0.
DRESSING_FACTORS = [
    parse_coefficient(t) for t in ("1", "-2/3", "mu", "(1 + i)/3", "1/(mu + 2)", "(mu - i)/(mu^2 + 3)", "1/mu")
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 10),
    st.sampled_from(range(len(DRESSING_FACTORS))),
    st.sampled_from(range(len(DRESSING_FACTORS))),
)
def test_packed_dressed_powers_match_the_coefficient_oracle(seed, n, top, chi_factor, w_factor):
    """`_dressed_powers` on packed forms against exp_truncated and Poly
    products (`oracle_dressed_powers`), for n = 1 to 3 and top 0 to 10."""
    rng = random.Random(seed)
    # Quadratic chi for n > 1 and a w of 2n terms keep the Coefficient oracle quick at top 10.
    chi = random_gauge_chi(rng, n, 3 if n == 1 else 2, terms=2, mu_degree=1, allow_i=True)
    chi = chi.scale(DRESSING_FACTORS[chi_factor])
    w = bilinear_pair_poly(_random_nondegenerate_omega(rng, n), n).scale(DRESSING_FACTORS[w_factor])
    w = w + w.scale(random_coefficient(rng, mu_degree=1)) if rng.random() < 0.5 else w
    assert list(_dressed_powers(chi, w, top)) == oracle_dressed_powers(chi, w, top)


# The n = 1 grid of the two-pass fit: chi shapes by series by fit degree.
GRID_CHIS = ("0", "u1^2", "u1*u2 - 2*u2^2", "mu*u1^3 + u1^2", "u1^2*u2/3 - i*u2^2")
GRID_SERIES = ("1", "1, 1/6", "1, mu^2/6", "1, 2, 6/5", "1, 0, 1/120", "1, 1/mu")


@pytest.mark.parametrize("chi_text", GRID_CHIS)
def test_expand_matches_the_coefficient_oracle_on_the_n1_grid(chi_text):
    chi = parse_poly(chi_text, sigma_space(1))
    for omega in (Matrix.canonical_symplectic(1), Matrix.canonical_symplectic(1, scalars.Coefficient.from_int(-2))):
        w = bilinear_pair_poly(omega.transpose(), 1)
        for series_text in GRID_SERIES:
            series = tuple(parse_coefficient(t) for t in series_text.split(","))
            kernel = StructuredLieKernel(1, chi, omega, series)
            for top in [*range(9), 10]:
                powers = oracle_dressed_powers(chi, w, top)
                expected = sum((d.scale(c) for c, d in zip(series, powers)), Poly.zero(w.space))
                assert kernel.expand(top).a == expected


@pytest.mark.parametrize("top", [2, 3, 4, 5])
def test_one_bit_short_of_the_chain_bound_decodes_wrong(monkeypatch, top):
    """The digit width of `_dressed_powers` is needed in full: for chi = 0
    and w = 3*u1*v1 the bound is reached, so a chain one bit narrower
    decodes a digit out of range, and the dressed power comes back wrong."""
    chi, w = Poly.zero(sigma_space(1)), parse_poly("3*u1*v1", PAIR)
    assert list(_dressed_powers(chi, w, top)) == [w] == oracle_dressed_powers(chi, w, top)
    width = lie.digit_width
    monkeypatch.setattr(lie, "digit_width", lambda bound: width(bound) - 1)
    assert list(_dressed_powers(chi, w, top)) != [w]


def test_the_dressing_refuses_a_constant_exponent():
    lifted = lift_substitutions(Poly.one(PAIR), PAIR, ((1, tuple((k,) for k in range(4))),))
    with pytest.raises(ValueError, match="constant term"):
        exp_blocks(lifted, 4)


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
        lambda: StructuredLieKernel(1, Poly.zero(sigma_space(1)), Matrix.canonical_symplectic(1), (ONE,)).expand(-1),
        # With verify_degree -1 no test monomial was built and q1 read as central.
        lambda: center_generators_from_kernel(raw(WEDGE), [(ONE, ZERO)], 1, verify_degree=-1),
        lambda: center_generators_from_kernel(raw(WEDGE), [(ONE, ZERO)], -1, verify_degree=2),
        # This leaked math.comb's "n must be a non-negative integer".
        lambda: dual_monomials(1, [(ONE, ZERO)], -3),
    ],
    ids=["fit", "center", "verify", "truncation", "exp", "generators-verify", "generators-max",
         "dual-monomials"],
)
def test_negative_degrees_are_refused(call):
    with pytest.raises(ValueError, match="must be non-negative"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        # zip truncated a short vector, and q1 read as a candidate.
        (lambda: center_generators_from_kernel(raw(WEDGE), [(ONE,)], 1, 1), ValueError, "2n = 2"),
        (lambda: dual_monomials(1, [(ONE, ZERO, ZERO)], 1), ValueError, "2n = 2"),
        # Int entries went into a trusted Poly.
        (lambda: center_generators_from_kernel(raw(WEDGE), [(1, 0)], 1, 1), TypeError, "Coefficient"),
        (lambda: dual_monomials(1, [(ONE, ZERO), (1, 0)], 2), TypeError, "Coefficient"),
    ],
    ids=["generators-length", "dual-monomials-length", "generators-type", "dual-monomials-type"],
)
def test_malformed_kernel_vectors_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("n", [0, -1, True, 1.0])
@pytest.mark.parametrize(
    "record",
    [
        lambda n: StarKernel(n, Poly.zero(sigma_space(int(n))), Matrix.zeros(2 * int(n), 2 * int(n))),
        lambda n: RawKernelExponent(n, Poly.zero(pair_space(int(n)))),
        lambda n: RawLieKernel(n, Poly.zero(pair_space(int(n)))),
        lambda n: StructuredLieKernel(
            n, Poly.zero(sigma_space(int(n))), Matrix.zeros(2 * int(n), 2 * int(n)), (ONE,)
        ),
    ],
    ids=["StarKernel", "RawKernelExponent", "RawLieKernel", "StructuredLieKernel"],
)
def test_kernel_records_reject_malformed_n(record, n):
    # RawLieKernel(0, ...) was accepted, and theorem2_pipeline then failed on its spaces.
    with pytest.raises(ValueError, match="must be an int of at least 1"):
        record(n)


def test_not_lie_kernel_is_a_violation_untruncated():
    assert lie_axiom_check(NOT_LIE).jacobi_status == "violation"


def test_structured_kernel_omega_must_be_2n_by_2n():
    chi = Poly.zero(sigma_space(2))
    with pytest.raises(DimensionMismatchError, match="omega must be 2n x 2n"):
        StructuredLieKernel(1, Poly.zero(sigma_space(1)), Matrix([[ZERO]]), (ONE,))
    with pytest.raises(DimensionMismatchError, match="omega must be 2n x 2n"):
        StructuredLieKernel(2, chi, Matrix.canonical_symplectic(1), (ONE,))
    StructuredLieKernel(2, chi, Matrix.canonical_symplectic(2), (ONE,)).expand(4)


def test_structured_kernel_chi_must_vanish_at_zero():
    # A constant term was accepted and failed later, in `expand`.
    chi = parse_poly("1 + u1*u2", sigma_space(1))
    with pytest.raises(ValueError, match="chi must vanish at sigma = 0"):
        StructuredLieKernel(1, chi, Matrix.canonical_symplectic(1), (ONE,))


@pytest.mark.parametrize(
    "series", [[ONE], (1.0,), ("1",), (ONE, 1), ONE], ids=["list", "float", "str", "int", "bare"]
)
def test_structured_kernel_h_series_must_be_a_tuple_of_coefficients(series):
    # A float or str failed deep in `expand`, and a list made the record unhashable.
    chi = Poly.zero(sigma_space(1))
    with pytest.raises(TypeError, match="h_series must be a tuple of Coefficients"):
        StructuredLieKernel(1, chi, Matrix.canonical_symplectic(1), series)


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


def centre_case(rng, n, antisymmetric):
    """A kernel whose blocks mostly avoid some coordinates, and a basis dual to them.

    A few terms reach the centre coordinates anyway, at every degree, so
    candidates fail at some verify degrees and pass at others."""
    width = 2 * n
    pair = pair_space(n)
    centre = rng.sample(range(width), rng.randint(1, width))
    others = [k for k in range(width) if k not in centre]
    least = rng.randint(0, 1)  # 0 lets a block be empty
    a = Poly.zero(pair)
    for _ in range(4):
        exps = [0] * (2 * width)
        for block in (0, width):
            for _ in range(rng.randint(least, 2)):
                k = rng.choice(others) if others and rng.random() < 0.85 else rng.randrange(width)
                exps[block + k] += 1
        a = a + Poly.monomial(pair, tuple(exps), random_coefficient(rng))
    if antisymmetric:
        a = a - slot_sum(a, pair, (1, "v", "u"))
    basis = [tuple(ONE if k == c else ZERO for k in range(width)) for c in centre]
    if len(centre) > 1 and rng.random() < 0.5:
        basis[0] = tuple(x + y for x, y in zip(basis[0], basis[1]))
    return RawLieKernel(n, a), basis


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.booleans(), st.integers(0, 3))
def test_centre_check_matches_the_monomial_loop(seed, n, antisymmetric, verify_degree):
    raw_kernel, basis = centre_case(random.Random(seed), n, antisymmetric)
    if antisymmetric:
        assert raw_kernel.antisymmetry_witness is None
    got = center_generators_from_kernel(raw_kernel, basis, 2, verify_degree)
    expected = oracle_center_generators(raw_kernel, basis, 2, verify_degree)
    assert [(c.generator, c.verified) for c in got] == expected


@pytest.mark.parametrize("verify_degree", [11, 40])
def test_centre_verification_builds_no_test_monomials(verify_degree):
    """Only the candidates meet the enumeration limit: the C(verify_degree + 6, 6)
    test monomials of n = 3, which the block check never builds, were once
    refused from verify degree 11 on."""
    a = raw(parse_poly("u1*v4 - v1*u4", pair_space(3)), n=3)
    basis = extract_omega(a).nullspace()
    got = center_generators_from_kernel(a, basis, 1, verify_degree)
    assert len(got) == 5 and all(c.verified for c in got)


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
    """The flags are the two-sided ones, read off the operator of A grouped
    by slot block without applying the kernel to any test monomial.  An
    antisymmetric kernel has apply(g, f) = -apply(f, g), so only its v-block
    operators are checked; otherwise the u-block operators are too, and a
    fully verified candidate list applies each checked operator once per
    candidate."""
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
    op_terms = DiffOp.from_sigma_poly(a.a).poly.terms
    blocks = {
        (side, exps[4:] if side == "v" else exps[:4])
        for exps in op_terms
        for side in "vu"[:applies_per_monomial]
        if sum(exps[4:] if side == "v" else exps[:4]) <= 3
    }
    bidiff_calls, op_calls = [], []
    apply, apply_once = BiDiff.apply, DiffOp.apply_once

    def counting_bidiff(self, f, g):
        bidiff_calls.append(1)
        return apply(self, f, g)

    def counting_op(self, target):
        op_calls.append(1)
        return apply_once(self, target)

    monkeypatch.setattr(BiDiff, "apply", counting_bidiff)
    monkeypatch.setattr(DiffOp, "apply_once", counting_op)
    got = center_generators_from_kernel(a, [(ZERO, ONE, ZERO, ZERO)], 2, 3)
    assert [(c.generator, c.verified) for c in got] == expected
    assert bidiff_calls == []
    if all(verified for _, verified in expected):
        assert len(op_calls) == len(blocks) * len(expected)
    else:
        assert not all(verified for _, verified in expected[1:])
