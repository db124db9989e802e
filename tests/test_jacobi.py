"""The cyclic Jacobi defect and the axiom report, against the direct forms.

`literal_jacobi_defect` is the three-product sum written out, and
`reference_axiom_check` is the earlier summary of the report (full sorts for
the witnesses, rendered mu-orders, a separate `mu_zero` walk), kept here as
the oracle for `lie_axiom_check` and for the mu-order parts of
`jacobi_defect` that the CLI renders.
"""

import dataclasses
import itertools
import random
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from conftest import (
    bracket_kernel_of,
    build_every_low_block,
    counting_blocks,
    fold_situations,
    oracle_slot_sum,
    random_gauge_chi,
    random_poly,
    slot_images,
    substitute,
    whole_product_jacobi,
)
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
from moyal.poly import Poly, pair_space, sigma_space, triple_space
from moyal.star import StarKernel, slot_sum

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

ONE, MU, ZERO = scalars.ONE, scalars.MU, scalars.ZERO
PAIR = pair_space(1)
WEDGE = parse_poly("v1*u2 - v2*u1", PAIR)
SINH_TRUNC = WEDGE + (WEDGE**3).scale(MU * MU).scale_fraction(Fraction(1, 6))
BAD = WEDGE + parse_poly("u1^2*v2^2 - v1^2*u2^2", PAIR)


def swapped(p):
    """p(v, u) for a pair-space p, by literal substitution."""
    return substitute(p, slot_images(p.space, len(p.space) // 4, "v", "u"), p.space)


def literal_jacobi_defect(raw):
    """The three products written out, each slot map the `Coefficient` loop."""
    a, tri = raw.a, triple_space(raw.n)

    def image(*slots):
        return oracle_slot_sum(a, tri, (1, *slots))

    return (
        image("u", "vw") * image("v", "w")
        + image("v", "wu") * image("w", "u")
        + image("w", "uv") * image("u", "v")
    )


def reference_axiom_check(raw, truncation_degree=None):
    """(status, witnesses, degree range, rendered mu-orders), computed directly."""
    n, a = raw.n, raw.a
    anti = a + swapped(a)
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
        a = a - swapped(a)
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
    "3/2-i/2": scalars.Coefficient.from_ints([3], [-1], 2),
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


@pytest.mark.parametrize("n, antisymmetric, denominator, seed", SEEDED)
def test_antisymmetry_witness_is_the_swap_sum(n, antisymmetric, denominator, seed):
    rng = random.Random(f"witness-{n}-{antisymmetric}-{denominator}-{seed}")
    a = seeded_kernel(rng, n, antisymmetric, denominator).a
    pair, width = a.space, 2 * n
    # u1*v1 is its own swap; u1^3*v2 is a term whose swap v1^3*u2 is absent,
    # since the seeded kernels stop at degree 3.
    own = tuple(int(k in (0, width)) for k in range(2 * width))
    lone = tuple(3 * (k == 0) + (k == width + 1) for k in range(2 * width))
    assert lone[width:] + lone[:width] not in a.terms
    for extra in (Poly.zero(pair), Poly.monomial(pair, own, MU), Poly.monomial(pair, lone, scalars.I)):
        kernel = a + extra
        swapped = {e[width:] + e[:width]: c for e, c in kernel.terms.items()}
        expected = kernel + Poly(pair, swapped)
        witness = RawLieKernel(n, kernel).antisymmetry_witness
        assert witness == (expected.leading_term() if expected else None)


def stress_kernel(rng, antisymmetric, denominator):
    """A dense n = 1 kernel: every monomial of degree 2 or 3 with both slot
    degrees at least 1, each with a coefficient of mu-degree 6 whose entries
    are of 2^40 to 2^41.  Its slot maps and products collide on most keys.
    Without antisymmetry or a denominator every entry is real and positive,
    so nothing cancels and the digits come closest to their bound."""
    signs = (1, -1) if antisymmetric or denominator else (1,)
    terms = {}
    for exps in itertools.product(range(4), repeat=4):
        if sum(exps) in (2, 3) and sum(exps[:2]) and sum(exps[2:]):
            re = [rng.randint(2**40, 2**41) * rng.choice(signs) for _ in range(7)]
            im = [rng.randint(2**40, 2**41) * rng.choice(signs) for _ in range(7)] if denominator else []
            terms[exps] = scalars.Coefficient.from_ints(re, im, 1)
    a = Poly(PAIR, terms)
    if antisymmetric:
        a = a - swapped(a)
    if denominator:
        a = a.scale((MU + scalars.Coefficient.from_int(2)).inverse())
    return RawLieKernel(1, a)


@pytest.mark.parametrize("antisymmetric", [False, True])
@pytest.mark.parametrize("denominator", [False, True])
def test_digit_width_under_large_dense_kernels(antisymmetric, denominator):
    raw = stress_kernel(random.Random(f"stress-{antisymmetric}-{denominator}"), antisymmetric, denominator)
    assert len(raw.a.terms) >= 14
    assert all(c.num.degree >= 6 for c in raw.a.terms.values())
    assert jacobi_defect(raw) == literal_jacobi_defect(raw)
    for truncation_degree in (None, 2):
        report = lie_axiom_check(raw, truncation_degree=truncation_degree)
        assert summary(raw, report) == reference_axiom_check(raw, truncation_degree)


CONSTANT_KERNELS = {
    # name: (n, c, status).  A = c gives one product entry, c^2 at x = y = z = 0,
    # whose three rotations coincide: the defect is 3c^2, the whole factor 3 of
    # the digit bound in `lie._defect_blocks`.
    "1": (1, ONE, "violation"),
    "5": (1, scalars.Coefficient.from_int(5), "violation"),
    "mu": (2, MU, "truncation-defect"),
}


@pytest.mark.parametrize("name", sorted(CONSTANT_KERNELS))
def test_constant_kernels_reach_the_digit_bound(name):
    n, c, status = CONSTANT_KERNELS[name]
    raw = RawLieKernel(n, Poly.constant(pair_space(n), c))
    defect = literal_jacobi_defect(raw)
    assert defect == Poly.constant(triple_space(n), c * c * scalars.Coefficient.from_int(3))
    assert jacobi_defect(raw) == defect
    report = lie_axiom_check(raw)
    assert report.jacobi_witness == defect.leading_term()
    assert report.jacobi_status == status
    assert summary(raw, report) == reference_axiom_check(raw)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("first, second", [("u", "vw"), ("v", "wu"), ("w", "uv"), ("uv", "w")])
def test_on_slots_expands_powers_of_sums(n, first, second):
    rng = random.Random(f"slots-{n}-{first}-{second}")
    p = random_poly(rng, pair_space(n), 5, terms=6, mu_degree=1)
    p = p + p * p
    tri = triple_space(n)
    assert any(max(exps) > 1 for exps in p.terms)
    expected = substitute(p, slot_images(tri, n, first, second), tri)
    assert slot_sum(p, tri, (1, first, second)) == expected


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
            (part.scale(MU**k) for k, part in parts.items()),
            Poly.zero(defect.space),
        ) == defect


def mu_free_bracket_kernel(mu_power):
    """The bracket kernel of (chi = mu^k u1^2, M = J) at total degree 4: its
    mu-free M leaves the denominator mu, and its Jacobi defect is
    mu^(2k - 2) times a mu-free polynomial."""
    chi = Poly.monomial(sigma_space(1), (2, 0), MU**mu_power)
    return bracket_kernel_of(StarKernel(1, chi, Matrix.canonical_symplectic(1, ONE)), 4)


MU_D = scalars.MU_POLY_MU
# Its cross term with WEDGE in the Jacobi defect is nonzero.
CUBIC = parse_poly("u1^2*v2 - v1^2*u2", PAIR)
MU_FLOOR = {
    # name: (kernel, D, mu-valuation of the defect, expected status).  The
    # defect is N / D^2, so its numerator N starts at mu^(2*val(D) + valuation).
    "bracket-over-mu-at-floor": (mu_free_bracket_kernel(1), MU_D, 0, "violation"),
    "over-mu-above-floor": (
        RawLieKernel(1, WEDGE.scale(MU.inverse()) + CUBIC.scale(MU * MU)),
        MU_D, 1, "truncation-defect",
    ),
    "bracket-over-mu2-at-floor": (
        RawLieKernel(1, mu_free_bracket_kernel(2).a.scale(MU.inverse())),
        MU_D * MU_D, 0, "violation",
    ),
    "over-mu2-above-floor": (
        RawLieKernel(1, WEDGE.scale((MU * MU).inverse()) + CUBIC.scale(MU**3)),
        MU_D * MU_D, 1, "truncation-defect",
    ),
}


@pytest.mark.parametrize("name", sorted(MU_FLOOR))
def test_mu_floor_of_the_defect_numerator(name):
    raw, den, valuation, status = MU_FLOOR[name]
    assert raw.a.split_denominator()[1] == den
    defect = jacobi_defect(raw)
    assert min(c.mu_valuation() for c in defect.terms.values()) == valuation
    for truncation_degree in (None, 6):
        report = lie_axiom_check(raw, truncation_degree=truncation_degree)
        assert report.jacobi_status == status
        assert summary(raw, report) == reference_axiom_check(raw, truncation_degree)


@pytest.mark.parametrize(
    "a", [WEDGE, SINH_TRUNC, BAD, BAD.scale(MU.inverse())], ids=["exact", "sinh", "bad", "bad/mu"]
)
def test_purely_imaginary_kernels_match_the_direct_forms(a):
    raw = RawLieKernel(1, a.scale(scalars.I))
    assert raw.antisymmetry_witness is None
    assert jacobi_defect(raw) == literal_jacobi_defect(raw)
    for truncation_degree in (None, 2):
        report = lie_axiom_check(raw, truncation_degree=truncation_degree)
        assert summary(raw, report) == reference_axiom_check(raw, truncation_degree)


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
    """The defect is built one degree block at a time, through
    `poly.block_product` alone: each (left degree, right degree) pair of
    the split slot maps is multiplied at most once, and a verdict fixed by
    the truncation degree multiplies no block above truncation degree + 2:
    the degrees above it are read (`poly.block_lead`) upwards to the lowest
    nonzero block.  The high end and the witness are read from the top
    degree down to the highest nonzero block, and equal the whole
    product's."""
    kernels = criterion_9_kernels()
    expected = {
        (k, truncation_degree): whole_product_jacobi(raw, truncation_degree)
        for k, raw in enumerate(kernels)
        for truncation_degree in (6, None)
    }
    pairs, calls, reads = [], [], []
    graded, read = lie.block_product, lie.block_lead

    def reading(left, right, fold, degree):
        reads.append(degree)
        return read(left, right, fold, degree)

    def counting(left, right, fold=None):
        product = graded(left, right, fold)

        def block(degree):
            pairs.extend((d, degree - d) for d in left if degree - d in right)
            return product(degree)

        block.all_pairs = set(itertools.product(left, right))
        block.top = max(left) + max(right)
        calls.append(block)
        return block

    def no_product(*args):
        raise AssertionError("a whole product was taken")

    def no_coefficient_images(*args):
        raise AssertionError("a slot image was built on Coefficients")

    monkeypatch.setattr(lie, "block_product", counting)
    monkeypatch.setattr(lie, "block_lead", reading)
    monkeypatch.setattr(Poly, "__mul__", no_product)
    # The slot maps add packed ints: no image term is scaled as a Coefficient
    # or summed by Poly.from_terms.
    monkeypatch.setattr(scalars.Coefficient, "scale_int", no_coefficient_images)
    monkeypatch.setattr(Poly, "from_terms", classmethod(no_coefficient_images))
    for k, raw in enumerate(kernels):
        for truncation_degree in (6, None):
            del pairs[:], calls[:], reads[:]
            report = lie_axiom_check(raw, truncation_degree)
            assert len(calls) == 1 and pairs
            assert len(pairs) == len(set(pairs))
            low, high = report.defect_degree_range
            built = {d1 + d2 for d1, d2 in pairs}
            downwards = list(range(calls[0].top, high - 1, -1))
            assert jacobi_report(report) == expected[k, truncation_degree]
            if truncation_degree is None:
                assert low in built
                assert reads == downwards
            else:
                assert report.jacobi_status == "truncation-defect"
                assert high - low >= 2
                # No block above truncation_degree + 2 is built: the lowest
                # nonzero one, and every one below it there, is read by its lead.
                assert max(built) <= truncation_degree + 2 < low
                assert reads == list(range(truncation_degree + 3, low + 1)) + downwards
                assert set(pairs) < calls[0].all_pairs
        del pairs[:], calls[:]
        jacobi_defect(raw)
        assert len(calls) == 1
        assert sorted(pairs) == sorted(calls[0].all_pairs)
    monkeypatch.undo()

    def no_rendering(self):
        raise AssertionError("a polynomial was rendered")

    split_calls = []
    mu_components = Poly.mu_components

    def counting_split(self):
        split_calls.append(1)
        return mu_components(self)

    # The fit's first pass divides by w (`divide_exact` multiplies); no other
    # step multiplies Coefficient polynomials: the dressed powers of the
    # second pass are packed block products.
    dividing, products = [], []
    divide, multiply = lie.divide_exact, Poly.__mul__

    def counting_division(*args):
        dividing.append(True)
        try:
            return divide(*args)
        finally:
            dividing.pop()

    def counting_product(self, other):
        if not dividing:
            products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(Poly, "__str__", no_rendering)
    monkeypatch.setattr(Poly, "mu_components", counting_split)
    monkeypatch.setattr(lie, "divide_exact", counting_division)
    monkeypatch.setattr(Poly, "__mul__", counting_product)
    for raw in kernels:
        report = theorem2_pipeline(raw, fit_degree=6, center_degree=2, verify_degree=4)
        assert report.passed, report.failure
        assert report.axioms.jacobi_status == "truncation-defect"
    assert not split_calls
    assert not products
    # The counters do see a split and a product.
    jacobi_defect(kernels[0]).mu_components()
    assert split_calls
    kernels[0].a * kernels[0].a
    assert products


GRADED_SEEDED = [
    (n, antisymmetric, denominator, seed)
    for n in (1, 2, 3)
    for antisymmetric in (True, False)
    for denominator in (None, "mu+c", "mu")
    for seed in range(2)
]


def jacobi_report(report):
    return report.jacobi_status, report.jacobi_witness, report.defect_degree_range


@pytest.mark.parametrize("n, antisymmetric, denominator, seed", GRADED_SEEDED)
def test_graded_report_matches_the_whole_product(n, antisymmetric, denominator, seed):
    rng = random.Random(f"graded-{n}-{antisymmetric}-{denominator}-{seed}")
    raw = seeded_kernel(rng, n, antisymmetric, denominator)
    assert (raw.antisymmetry_witness is None) == antisymmetric
    for truncation_degree in (None, 0, 2, 4):
        report = lie_axiom_check(raw, truncation_degree=truncation_degree)
        assert jacobi_report(report) == whole_product_jacobi(raw, truncation_degree)


def lead_read_cases(raw):
    """The fold of the Jacobi product of a kernel and the hard cases it holds
    for the lead read of `poly.block_lead` (`fold_situations`), read off the
    slot maps of the numerator of A as polynomials."""
    a, width = raw.a.split_denominator()[0], 2 * raw.n
    tri, fold = triple_space(raw.n), "alternating" if raw.antisymmetry_witness is None else "cyclic"
    half = Poly(a.space, {e: c for e, c in a.terms.items() if e[:width] > e[width:]})
    left = slot_sum(a, tri, (1, "u", "vw"))
    right = slot_sum(half if fold == "alternating" else a, tri, (1, "v", "w"))
    return fold, fold_situations(left, right, fold)


# The Jacobi defect of c1 * WEDGE + c2 * u1 has no top block: WEDGE alone is
# a Lie kernel.  The seeded n = 2 kernels are the antisymmetric ones whose
# top block vanishes, one per denominator.
LEAD_READ_KERNELS = [
    RawLieKernel(1, WEDGE + parse_poly("u1", PAIR)),
    RawLieKernel(1, WEDGE.scale(scalars.I * MU) + parse_poly("u1", PAIR).scale((MU + ONE).inverse())),
] + [
    seeded_kernel(random.Random(f"graded-2-True-{denominator}-{seed}"), 2, True, denominator)
    for denominator, seed in ((None, 29), ("mu+c", 37), ("mu", 16))
]


def test_the_lead_read_meets_its_hard_cases():
    """`lie_axiom_check` reads the high end and the witness best-first.  On
    these kernels and those of `test_graded_report_matches_the_whole_product`,
    with i parts, mu-denominators and both folds, the read meets a top block
    that vanishes, a largest reachable orbit with two equal blocks and a
    largest candidate that folds to zero, and the reports equal the whole
    product's."""
    seen = {"alternating": set(), "cyclic": set()}
    graded = [
        seeded_kernel(random.Random(f"graded-{n}-{anti}-{denominator}-{seed}"), n, anti, denominator)
        for n, anti, denominator, seed in GRADED_SEEDED
    ]
    for raw in LEAD_READ_KERNELS + graded:
        fold, cases = lead_read_cases(raw)
        seen[fold] |= cases
    assert seen == {
        "alternating": {"top vanishes", "two equal blocks", "cancelled candidate"},
        "cyclic": {"top vanishes", "cancelled candidate"},
    }
    for raw in LEAD_READ_KERNELS:
        for truncation_degree in (None, 0, 2, 4):
            report = lie_axiom_check(raw, truncation_degree=truncation_degree)
            assert jacobi_report(report) == whole_product_jacobi(raw, truncation_degree)


def pipeline_runs(source):
    """theorem2 calls, each a partial of `theorem2_pipeline` on (raw, fit_degree=...)."""
    if source == "graded":
        return [
            partial(theorem2_pipeline, seeded_kernel(
                random.Random(f"graded-{n}-{anti}-{denominator}-{seed}"), n, anti, denominator
            ), fit_degree=fit_degree)
            for n, anti, denominator, seed in GRADED_SEEDED
            for fit_degree in (2, 4, 6)
        ]
    if source == "criterion-9":
        return [
            partial(theorem2_pipeline, raw, fit_degree=6, center_degree=2, verify_degree=4)
            for raw in criterion_9_kernels()
        ]
    return [
        op.run
        for seed in range(41, 51)
        for op in workloads.build_classify(seed)
        if op.kind.startswith("theorem2-")
    ]


@pytest.mark.parametrize("source", ["graded", "criterion-9", "classify"])
def test_theorem2_reports_equal_the_full_block_path(monkeypatch, source):
    """The pipeline skips the low Jacobi blocks when `classify_h` finds the
    fitted h sinh or linear; its reports equal those of the path that
    builds every block at or below fit_degree + 2, and its axiom report
    equals `lie_axiom_check`'s, on the seeded graded kernels, the
    criterion-9 kernels and every theorem2 op of `classify` seeds 41-50.
    A fitted Lie kernel builds no whole block; every other builds the same
    blocks as that path, and every one reads the same leads."""
    statuses = set()
    for run in pipeline_runs(source):
        with monkeypatch.context() as patch:
            counts = counting_blocks(patch)
            report = run()
            shortcut = dict(counts)
        with monkeypatch.context() as patch:
            counts = counting_blocks(patch)
            build_every_low_block(patch)
            expected = run()
        assert report == expected
        assert report.axioms == lie_axiom_check(run.args[0], run.keywords["fit_degree"])
        assert shortcut["leads"] == counts["leads"]
        fitted_lie = report.status in ("moyal-class", "poisson-class")
        assert shortcut["blocks"] == (0 if fitted_lie else counts["blocks"])
        statuses.add(report.status)
    if source == "classify":
        assert statuses == {"moyal-class", "poisson-class", "degenerate", "axioms-failed"}


# A kernel whose lowest defect blocks vanish at mu = 0 and a later one does
# not: at degrees 5 and 6 they carry mu and mu^2, at degree 7 WEDGE times
# the quartic term carries no mu.
LAZY_MU = RawLieKernel(1, WEDGE + CUBIC.scale(MU) + parse_poly("u1^4*v2 - v1^4*u2", PAIR))
GRADED_BRANCHES = {
    # name: (kernel, truncation degree, expected status, one nonzero degree)
    "exact": (RawLieKernel(1, WEDGE), None, "exact", False),
    "truncation-above-degree": (
        dressed_linear(random.Random(4), 1, 4), 4, "truncation-defect", True,
    ),
    "truncation-by-mu": (RawLieKernel(1, SINH_TRUNC), None, "truncation-defect", True),
    "violation": (RawLieKernel(1, BAD), None, "violation", True),
    "lazy-mu-zero": (LAZY_MU, None, "violation", False),
    # The lowest degree, 5, is truncation + 2: not above it, so mu = 0 decides.
    "lazy-mu-zero-at-3": (LAZY_MU, 3, "violation", False),
    "lazy-mu-zero-at-6": (LAZY_MU, 6, "violation", False),
    "lazy-above-truncation": (LAZY_MU, 2, "truncation-defect", False),
    "constant-over-mu": (
        RawLieKernel(2, Poly.constant(pair_space(2), MU.inverse())), None, "violation", True,
    ),
}


@pytest.mark.parametrize("name", sorted(GRADED_BRANCHES))
def test_every_branch_of_the_graded_report(name):
    raw, truncation_degree, status, one_degree = GRADED_BRANCHES[name]
    report = lie_axiom_check(raw, truncation_degree=truncation_degree)
    assert report.jacobi_status == status
    assert jacobi_report(report) == whole_product_jacobi(raw, truncation_degree)
    assert summary(raw, report) == reference_axiom_check(raw, truncation_degree)
    if status != "exact":
        low, high = report.defect_degree_range
        assert (low == high) == one_degree


def test_the_mu_zero_test_reads_past_the_lowest_block():
    defect = jacobi_defect(LAZY_MU)
    parts = {d: defect.homogeneous_component(d) for d in range(11)}
    assert [d for d, part in parts.items() if part] == [5, 6, 7, 8, 10]
    assert parts[5].mu_zero().is_zero and parts[6].mu_zero().is_zero
    assert not parts[7].mu_zero().is_zero
    for truncation_degree in (None, 6):
        report = lie_axiom_check(LAZY_MU, truncation_degree)
        assert report.defect_degree_range == (5, 10)
        assert report.jacobi_status == "violation"


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
