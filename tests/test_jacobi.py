"""The cyclic Jacobi defect and the axiom report, against the direct forms.

`literal_jacobi_defect` is the three-product sum written out, and
`reference_axiom_check` is the earlier summary of the report (full sorts for
the witnesses, rendered mu-orders, a separate `mu_zero` walk), kept here as
the oracle for `lie_axiom_check` and for the mu-order parts of
`jacobi_defect` that the CLI renders.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from conftest import random_gauge_chi, random_poly, slot_images, substitute
from moyal import lie, scalars
from moyal.errors import MoyalError
from moyal.expressions import parse_poly
from moyal.lie import (
    RawLieKernel,
    StructuredLieKernel,
    jacobi_defect,
    lie_axiom_check,
    theorem2_pipeline,
)
from moyal.linalg import Matrix
from moyal.poly import Poly, lifted_mul, pair_space, triple_space
from moyal.star import on_slots, slot_swap

ONE, MU, ZERO = scalars.ONE, scalars.MU, scalars.ZERO
PAIR = pair_space(1)
WEDGE = parse_poly("v1*u2 - v2*u1", PAIR)
SINH_TRUNC = WEDGE + (WEDGE**3).scale(MU * MU).scale_fraction(Fraction(1, 6))
BAD = WEDGE + parse_poly("u1^2*v2^2 - v1^2*u2^2", PAIR)


def literal_jacobi_defect(raw):
    a, tri = raw.a, triple_space(raw.n)
    return (
        on_slots(a, tri, "u", "vw") * on_slots(a, tri, "v", "w")
        + on_slots(a, tri, "v", "wu") * on_slots(a, tri, "w", "u")
        + on_slots(a, tri, "w", "uv") * on_slots(a, tri, "u", "v")
    )


def reference_axiom_check(raw, truncation_degree=None):
    """(status, witnesses, degree range, rendered mu-orders), computed directly."""
    n, a = raw.n, raw.a
    anti = a + slot_swap(a)
    anti_witness = None if anti.is_zero else anti.sorted_terms()[0]
    const_witness = None
    for exps, coeff in a.sorted_terms():
        if sum(exps[: 2 * n]) == 0:
            const_witness = (exps, coeff)
            break
    defect = literal_jacobi_defect(raw)
    if defect.is_zero:
        status, jac_witness, mu_orders, degree_range = "exact", None, None, None
    else:
        jac_witness = defect.sorted_terms()[0]
        degrees = [sum(e) for e in defect.terms]
        degree_range = (min(degrees), max(degrees))
        try:
            mu_orders = {k: str(part) for k, part in sorted(defect.mu_components().items())}
        except ValueError:
            mu_orders = None
        vanishes_at_zero = False
        try:
            vanishes_at_zero = defect.mu_zero().is_zero
        except MoyalError:
            pass
        above_truncation = (
            truncation_degree is not None and degree_range[0] > truncation_degree + 2
        )
        status = (
            "truncation-defect" if (vanishes_at_zero or above_truncation) else "violation"
        )
    return status, anti_witness, const_witness, jac_witness, degree_range, mu_orders


def rendered_mu_orders(raw, report):
    """The mu-order parts of a nonzero defect, as the CLI renders them; None
    for an exact kernel or a defect with a mu-denominator."""
    if report.jacobi_status == "exact":
        return None
    defect = jacobi_defect(raw)
    if not all(c.den.is_one for c in defect.terms.values()):
        return None
    return {k: str(v) for k, v in defect.mu_components().items()}


def summary(raw, report):
    return (
        report.jacobi_status,
        report.antisymmetry_witness,
        report.constants_witness,
        report.jacobi_witness,
        report.defect_degree_range,
        rendered_mu_orders(raw, report),
    )


def seeded_kernel(rng, n, antisymmetric, denominator):
    """A random pair-space kernel with mu and i, over an optional mu-denominator."""
    a = random_poly(rng, pair_space(n), 3, terms=4, mu_degree=2, allow_i=True)
    if antisymmetric:
        a = a - slot_swap(a)
    if denominator == "mu+c":
        a = a.scale((MU + scalars.Coefficient.from_int(rng.randint(1, 3))).inverse())
    elif denominator == "mu":
        a = a.scale(MU.inverse())
    return RawLieKernel(n, a)


SEEDED = [
    (n, antisymmetric, denominator, seed)
    for n in (1, 2)
    for antisymmetric in (True, False)
    for denominator in (None, "mu+c", "mu")
    for seed in range(2)
]


@pytest.mark.parametrize("n, antisymmetric, denominator, seed", SEEDED)
def test_seeded_kernels_match_the_direct_forms(n, antisymmetric, denominator, seed):
    rng = random.Random(f"jacobi-{n}-{antisymmetric}-{denominator}-{seed}")
    raw = seeded_kernel(rng, n, antisymmetric, denominator)
    assert jacobi_defect(raw) == literal_jacobi_defect(raw)
    for truncation_degree in (None, 0, 2, 4):
        report = lie_axiom_check(raw, truncation_degree=truncation_degree)
        assert summary(raw, report) == reference_axiom_check(raw, truncation_degree)


UNITS = {
    "-1": scalars.MINUS_ONE,
    "i": scalars.I,
    "3/2-i/2": scalars.Coefficient.from_gauss(Fraction(3, 2), Fraction(-1, 2)),
    "1/mu": MU.inverse(),
    "2/(mu+1)": (MU + ONE).inverse().scale_int(2),
}


def scaled_term(term, u):
    return None if term is None else (term[0], term[1] * u)


@pytest.mark.parametrize("unit", sorted(UNITS))
@pytest.mark.parametrize("n, antisymmetric, denominator, seed", SEEDED)
def test_report_of_a_kernel_scaled_by_a_unit(n, antisymmetric, denominator, seed, unit):
    """The report of u*A is that of A with the values scaled by u (the Jacobi
    defect by u^2); for u in Q(i) that is the whole report."""
    raw = seeded_kernel(
        random.Random(f"jacobi-{n}-{antisymmetric}-{denominator}-{seed}"),
        n, antisymmetric, denominator,
    )
    u = UNITS[unit]
    u2 = u * u
    scaled = RawLieKernel(n, raw.a.scale(u))
    assert jacobi_defect(scaled) == jacobi_defect(raw).scale(u2)
    report, got = lie_axiom_check(raw, 2), lie_axiom_check(scaled, 2)
    expected = dataclasses.replace(
        report,
        antisymmetry_witness=scaled_term(report.antisymmetry_witness, u),
        constants_witness=scaled_term(report.constants_witness, u),
        jacobi_witness=scaled_term(report.jacobi_witness, u2),
    )
    if u.den.is_one and u.num.degree == 0:
        assert got == expected
        defect = jacobi_defect(raw)
        if all(c.den.is_one for c in defect.terms.values()):
            assert jacobi_defect(scaled).mu_components() == {
                k: part.scale(u2) for k, part in defect.mu_components().items()
            }
    else:
        # A mu-dependent unit moves the mu-orders and may move the status.
        assert dataclasses.replace(got, jacobi_status=None) == (
            dataclasses.replace(expected, jacobi_status=None)
        )


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("first, second", [("u", "vw"), ("v", "wu"), ("w", "uv"), ("uv", "w")])
def test_on_slots_expands_powers_of_sums(n, first, second):
    rng = random.Random(f"slots-{n}-{first}-{second}")
    p = random_poly(rng, pair_space(n), 5, terms=6, mu_degree=1)
    p = p + p * p
    tri = triple_space(n)
    assert any(max(exps) > 1 for exps in p.terms)
    expected = substitute(p, slot_images(tri, n, first, second), tri)
    assert on_slots(p, tri, first, second) == expected


def dressed_linear(rng, n, fit):
    """A normal-form kernel with a mu-free dressing, truncated at total degree fit."""
    chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=0, allow_i=False)
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i], rows[n + i][i] = ONE, -ONE
    return StructuredLieKernel(n, chi, Matrix(rows), (ONE,)).expand(fit)


def rational(poly, denominator):
    return RawLieKernel(1, poly.scale(denominator.inverse()))


MU_PLUS_ONE = MU + ONE
BRANCHES = {
    # name: (kernel, truncation degree, expected status, mu-orders present)
    "exact": (RawLieKernel(1, WEDGE), None, "exact", False),
    "truncation-by-mu": (RawLieKernel(1, SINH_TRUNC), None, "truncation-defect", True),
    "truncation-by-degree": (
        dressed_linear(random.Random(4), 1, 4), 4, "truncation-defect", True,
    ),
    "violation": (RawLieKernel(1, BAD), 10, "violation", True),
    "rational-vanishing-at-zero": (
        rational(SINH_TRUNC, MU_PLUS_ONE), None, "truncation-defect", False,
    ),
    "rational-violation": (rational(BAD, MU_PLUS_ONE), None, "violation", False),
    "pole-at-zero": (rational(BAD, MU), None, "violation", False),
    "pole-above-truncation": (rational(BAD, MU), 1, "truncation-defect", False),
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_every_branch_of_the_summary(name):
    raw, truncation_degree, status, has_mu_orders = BRANCHES[name]
    report = lie_axiom_check(raw, truncation_degree=truncation_degree)
    assert report.jacobi_status == status
    assert (rendered_mu_orders(raw, report) is not None) == has_mu_orders
    assert summary(raw, report) == reference_axiom_check(raw, truncation_degree)
    if has_mu_orders:
        defect = jacobi_defect(raw)
        parts = defect.mu_components()
        assert all(isinstance(part, Poly) for part in parts.values())
        assert sum(
            (part.scale(scalars.Coefficient.mu_power(k)) for k, part in parts.items()),
            Poly.zero(defect.space),
        ) == defect


def test_truncation_by_degree_case_is_not_excused_by_mu():
    raw, truncation_degree, _, _ = BRANCHES["truncation-by-degree"]
    assert 0 in jacobi_defect(raw).mu_components()
    assert lie_axiom_check(raw).jacobi_status == "violation"
    assert lie_axiom_check(raw, truncation_degree).jacobi_status == "truncation-defect"


def criterion_9_kernels():
    rng = random.Random(909)
    sinh = StructuredLieKernel(
        1, random_gauge_chi(rng, 1, 3, terms=2, mu_degree=1, allow_i=False),
        Matrix([[ZERO, ONE], [-ONE, ZERO]]), (ONE, MU * MU.scale_fraction(Fraction(1, 6))),
    )
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[0][2], rows[2][0] = scalars.Coefficient.from_int(2), scalars.Coefficient.from_int(-2)
    rows[1][3], rows[3][1] = ONE, -ONE
    linear = StructuredLieKernel(
        2, random_gauge_chi(rng, 2, 3, terms=2, mu_degree=1, allow_i=False),
        Matrix(rows), (ONE,),
    )
    return [sinh.expand(6), linear.expand(6)]


def test_one_product_per_defect_and_no_rendering(monkeypatch):
    kernels = criterion_9_kernels()
    calls = []

    def counting(x, y):
        calls.append(1)
        return lifted_mul(x, y)

    def no_poly_product(self, other):
        raise AssertionError("a Poly product was taken")

    monkeypatch.setattr(lie, "lifted_mul", counting)
    monkeypatch.setattr(Poly, "__mul__", no_poly_product)
    for raw in kernels:
        del calls[:]
        jacobi_defect(raw)
        assert len(calls) == 1
    monkeypatch.undo()

    def no_rendering(self):
        raise AssertionError("a polynomial was rendered")

    split_calls = []
    mu_components = Poly.mu_components

    def counting_split(self):
        split_calls.append(1)
        return mu_components(self)

    monkeypatch.setattr(Poly, "__str__", no_rendering)
    monkeypatch.setattr(Poly, "mu_components", counting_split)
    for raw in kernels:
        report = theorem2_pipeline(raw, fit_degree=6, center_degree=2, verify_degree=4)
        assert report.passed, report.failure
        assert report.axioms.jacobi_status == "truncation-defect"
    assert not split_calls
    # The counter does see a split.
    jacobi_defect(kernels[0]).mu_components()
    assert split_calls


def test_seeded_kernels_carry_i_mu_and_denominators():
    coeffs = [
        c
        for n, antisymmetric, denominator, seed in SEEDED
        for c in seeded_kernel(
            random.Random(f"jacobi-{n}-{antisymmetric}-{denominator}-{seed}"),
            n, antisymmetric, denominator,
        ).a.terms.values()
    ]
    assert any("i" in str(c) for c in coeffs)
    assert any(c.mu_valuation() > 0 for c in coeffs)
    assert any(c.mu_valuation() < 0 for c in coeffs)
    assert any(not c.den.is_one and c.mu_valuation() == 0 for c in coeffs)
