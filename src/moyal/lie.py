"""Bracket-kernel analysis: Lie axioms, normal-form fitting, classification.

A bracket kernel is a polynomial A over pair space (slots u = sigma,
v = sigma'), defining the bilinear operation whose bidifferential realization
applies A(-i d/dz (x) -i d/dz) once to f (x) g and merges the slots.  The
kernel defines a Lie bracket annihilating constants when

    A(u, v) = -A(v, u),                         (antisymmetry)
    A(u, v+w) A(v, w) + cyclic = 0,             (Jacobi)
    A(0, v) = 0.                                (constants)

Because entire kernels can only enter exactly as polynomial truncations,
Jacobi checks read their defect both at mu = 0 and by total degree: a
degree-T truncation of a valid kernel has a defect supported in total degree
> T + 2, and mu-truncations (e.g. of the hyperbolic-sine kernel) leave a
defect that vanishes at mu = 0.  Both patterns are reported as expected
truncation defects rather than violations.

Packed form.  The Jacobi check runs on exact integers: A(u, v+w) and
A(v, w), or half of it when A is antisymmetric, are lifted straight from the
terms of A (`poly.lift_slots`) into `poly.Lifted` forms, split by total
degree, and multiplied one output degree at a time (`poly.block_product`),
each pair's product filed by block permutation as it is added; the fold
keeps degrees, so each block is the whole defect's part of that degree.  The
report reads three things, and stops as soon as it has them: the lowest
nonzero block, found upwards, gives the low end of the degree range and,
against the truncation degree, the verdict (it is built, except above
truncation degree + 2, where a nonzero block fixes the verdict and each is
read for its lead alone); the highest, found downwards, gives the high end
and the witness, its lead, which is the whole defect's lead because keys
order by degree first.  The blocks above the lowest are not built for
this: each is read for its lead alone (`poly.block_lead`), from the top
degree down, to the first that does not vanish.  Only a verdict that rests
on mu = 0 builds the blocks in between, upwards, up to the first that does
not vanish there.  For a kernel it has fitted, `theorem2_pipeline` decides
the blocks at or below truncation degree + 2 from h alone, by the paper's
reduction of Jacobi to F_h(x, y, z) = 0: when `classify_h` finds h sinh
or linear, they vanish, none of them is built, and the lowest nonzero block
is sought by its lead from truncation degree + 3 up.
The blocks are read through the form's methods; only the
entries of the leading monomial, the witness, are turned back into a
coefficient.  `jacobi_defect` alone unlifts every entry: it is the rotated
sum, every block merged (the CLI renders the defect's mu-order parts from
it).  The fit's dressed powers exp(delta chi) * w^k run on the same product
(`_dressed_powers`): delta chi and w are lifted, the exponential is summed
from block products (`poly.exp_blocks`), and each power is unlifted once;
the fit reads them as polynomials.

Convention sheet (pinned by the Moyal fixture, see tests): with the bracket
kernel of the symmetric-ordering product, the first-slot derivative matrix is

    omega_ij := d/du_i A(0, sigma')|_linear = coefficient of u_i v_j,

and omega = -M/mu where M is the product kernel's antisymmetric matrix; in
particular omega = -J for the Moyal/hyperbolic-sine family.

Nondegenerate kernels are fitted to the normal form

    A = exp(chi(u) + chi(v) - chi(u+v)) * h(w),   w = sum omega_ij u_i v_j,

with gauge-fixed chi and h'(0) = 1 (w is read off A itself, which absorbs
the only scale freedom of the pair (omega, h)).  The fit makes two passes:
chi is read off A alone, then A is compared once with exp(delta chi) * h(w),
h being read off the leads of the odd powers of w.  The odd series h is then
classified: h'' = mu^2 h termwise forces either c*sinh(mu*x) (mu^2 != 0) or
c*x, the only generating functions compatible with Jacobi.  That the fit
misses nothing at first order around w, the premise of `_fit_structured`, is
checked by exact rank in tests/test_census.py for n = 1 at degrees 2 to 11
and n = 2 at degrees 2 to 6: the first-order Lie kernels are the gauge
directions (delta chi) * w, the scale of w and w^3.  The same file checks
that Jacobi then fixes the w^5 and w^7 coefficients to the sinh values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import count
from math import factorial
from typing import Callable, Iterator, Sequence

from . import scalars
from .cocycle import dual_monomials
from .errors import DimensionMismatchError, MoyalError, SpaceMismatchError
from .linalg import Matrix, Vector
from .poly import (
    DiffOp,
    Exponents,
    Lifted,
    Poly,
    block_lead,
    block_product,
    check_degree,
    check_dimension,
    digit_width,
    divide_exact,
    exp_blocks,
    exp_bound,
    lift_scale,
    lift_slots,
    pair_space,
    phase_space,
    product_blocks,
    sigma_space,
    triple_space,
    unlift_blocks,
)
from .star import COBOUNDARY_MAPS, BiDiff, bilinear_form, bilinear_pair_poly, swap_slots


class LieKernelError(MoyalError):
    """A structural extraction step failed; carries a witness monomial."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class RawLieKernel:
    """A candidate bracket kernel over pair space."""

    n: int
    a: Poly

    def __post_init__(self):
        check_dimension(self.n)
        if self.a.space != pair_space(self.n):
            raise SpaceMismatchError("A must live on pair space u1..u2n, v1..v2n")

    @cached_property
    def antisymmetry_witness(self) -> tuple[Exponents, scalars.Coefficient] | None:
        """The leading term of A(u, v) + A(v, u); None when A is antisymmetric."""
        return _first_term(self.a + swap_slots(self.a))

    @cached_property
    def constants_witness(self) -> tuple[Exponents, scalars.Coefficient] | None:
        """The leading term of A(0, v), the terms with no exponent in the u-block; None when A(0, v) = 0."""
        width = 2 * self.n
        return _first_term(Poly(self.a.space, {e: c for e, c in self.a.terms.items() if not any(e[:width])}))


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAxiomReport:
    """Outcome of the antisymmetry / Jacobi / constants checks.

    The verdict, the leading terms that witness each failure, and the total
    degree range of a nonzero Jacobi defect.  The defect itself is
    `jacobi_defect`.
    """

    antisymmetry_witness: tuple[Exponents, scalars.Coefficient] | None
    constants_witness: tuple[Exponents, scalars.Coefficient] | None
    jacobi_status: str  # "exact" | "truncation-defect" | "violation"
    jacobi_witness: tuple[Exponents, scalars.Coefficient] | None
    defect_degree_range: tuple[int, int] | None

    @property
    def antisymmetric(self) -> bool:
        return self.antisymmetry_witness is None

    @property
    def constants_annihilate(self) -> bool:
        return self.constants_witness is None

    @property
    def passed(self) -> bool:
        return (
            self.antisymmetric
            and self.constants_annihilate
            and self.jacobi_status in ("exact", "truncation-defect")
        )


def _defect_blocks(
    raw: RawLieKernel, antisymmetric: bool
) -> tuple[range, Callable[[int], Lifted] | None, Callable[[int], Lifted | None] | None]:
    """The Jacobi defect in packed form, one total degree at a time: (degrees,
    block, lead), block(d) being the entries of degree d, at one exponent
    tuple per orbit of their blocks when `antisymmetric` and at every
    exponent tuple otherwise, and lead(d) the entries of the largest
    monomial of block(d), or None when it vanishes, read without building
    the block (`poly.block_lead`).  Every nonzero degree lies in `degrees`,
    and no block is built until it is asked for, so a reader that needs
    only the ends of the defect, as `lie_axiom_check` does, builds only the
    blocks it reads.  A zero slot map gives no degrees, block or lead.

    For an antisymmetric A the defect is the sum over S3 of sgn(pi) Q o pi,
    Q = A(u,v+w) H(v,w), where H holds the terms of A(v,w) whose v-block is
    lexicographically above its w-block (A = H - H o swap), so the
    alternating fold of Q holds it at the largest tuple of each orbit.
    Otherwise the defect is the cyclic sum of P = A(u,v+w) A(v,w), the
    rotation fold of P.

    Both slot maps are lifted once (`poly.lift_slots`) from D * A, D the
    lcm of the denominators of A (`Poly.split_denominator`), with one digit
    width and one int scale, both read from one `poly.lift_scale` of D * A
    (H holds a subset of its terms), and split by degree; block(d) is the
    degree-d block of their product folded as it is multiplied
    (`poly.block_product` with the alternating or cyclic fold), divided by
    D^2, and lead(d) reads the same fold.  The fold keeps each key's degree,
    so it is the degree-d part of the whole fold, entry for entry.
    The digits are wide enough for the whole fold, and so for every block:
    with |.|_1 the sum of the absolute digit values of a lifted form and deg
    the degree of A, |A(u,v+w)|_1 <= 2^deg |D*A|_1 (each term's images sum
    binomial multiples of it, 2^deg at most) and |A(v,w)|_1 <= |D*A|_1.
    Each pair's product is added once (alternating) or three times
    (cyclic), and a digit, or a partial sum of one, cannot exceed the sum
    of the absolute contributions it collects, so every digit met is at
    most 3 * 2^deg |D*A|_1^2 < 2^(B-1).  The factor 3 is reached: for a
    constant A the rotations of the one product key, x = y = z = 0,
    coincide.
    """
    (a, den), tri = raw.a.split_denominator(), triple_space(raw.n)
    width = 2 * raw.n
    scaled = lift_scale(a)
    digit_bits = digit_width(3 * scaled[1] ** 2 << max(a.total_degree(), 0))
    half = Poly(a.space, {e: c for e, c in a.terms.items() if e[:width] > e[width:]})
    left = lift_slots(a, tri, ((1, "u", "vw"),), digit_bits, scaled).by_degree()
    right = lift_slots(half if antisymmetric else a, tri, ((1, "v", "w"),), digit_bits, scaled).by_degree()
    if not left or not right:
        return range(0), None, None
    fold = "alternating" if antisymmetric else "cyclic"
    product = block_product(left, right, fold)
    degrees, den2 = range(min(left) + min(right), max(left) + max(right) + 1), den * den

    def lead(degree: int) -> Lifted | None:
        entry = block_lead(left, right, fold, degree)
        return None if entry is None else entry.over(den2)

    return degrees, lambda degree: product(degree).over(den2), lead


def jacobi_defect(raw: RawLieKernel) -> Poly:
    """A(u,v+w)A(v,w) + A(v,w+u)A(w,u) + A(w,u+v)A(u,v) over triple space.

    The packed cyclic sum of `_defect_blocks`, every block merged, unlifted.
    """
    degrees, block, _ = _defect_blocks(raw, False)
    return unlift_blocks({degree: block(degree) for degree in degrees}, triple_space(raw.n))


def _first_term(p: Poly) -> tuple[Exponents, scalars.Coefficient] | None:
    """The first term of `p.sorted_terms()`, found without sorting; None for 0."""
    return p.leading_term() if p.terms else None


def lie_axiom_check(
    raw: RawLieKernel, truncation_degree: int | None = None
) -> LieAxiomReport:
    """Check the Lie axioms exactly, reporting the Jacobi defect's degree range.

    A nonzero Jacobi defect is downgraded from "violation" to
    "truncation-defect" when it vanishes at mu = 0, or when
    `truncation_degree` is given and the defect lives entirely above total
    degree truncation_degree + 2 (the signature of a truncated valid kernel).

    The defect's blocks (`_defect_blocks`) at or below
    truncation_degree + 2 (every block, when it is not given) are built
    whole from the lowest degree up to the first nonzero one; a degree
    above it is tested by its lead alone, without building its block: a
    nonzero block there fixes the verdict.  The high end of the degree range
    and the witness are read from the top degree down, each block for its
    lead alone; and a verdict that rests on mu = 0 builds the blocks from
    the lowest nonzero one up to the first that does not vanish there.
    `theorem2_pipeline` reads the same report without building the low
    blocks when h shows that they vanish (`_axiom_report`).
    """
    if truncation_degree is not None and truncation_degree < 0:
        raise ValueError("truncation_degree must be non-negative")
    return _axiom_report(raw, truncation_degree, low_blocks_vanish=False)


def _axiom_report(raw: RawLieKernel, truncation_degree: int | None, low_blocks_vanish: bool) -> LieAxiomReport:
    """`lie_axiom_check`, without its argument check.  When
    `low_blocks_vanish`, the caller has shown that every Jacobi block at or
    below truncation_degree + 2 vanishes, and the lowest nonzero block is
    sought from truncation_degree + 3 up, by its lead alone: no block is
    built, and the report is the one the blocks would give."""
    anti_witness = raw.antisymmetry_witness
    degrees, fold, lead = _defect_blocks(raw, anti_witness is None)
    blocks: dict[int, Lifted] = {}

    def block(degree: int) -> Lifted:
        if degree not in blocks:
            blocks[degree] = fold(degree)
        return blocks[degree]

    start = max(degrees.start, truncation_degree + 3) if low_blocks_vanish else degrees.start
    low = highest = None
    for degree in range(start, degrees.stop):
        # Above truncation_degree + 2 a nonzero block fixes the verdict, so
        # its lead, the witness should it also be the highest, is enough.
        if truncation_degree is not None and degree > truncation_degree + 2:
            highest = lead(degree)
        elif block(degree).terms:
            highest = blocks[degree]
        if highest is not None:
            low = degree
            break
    if low is None:
        status, jac_witness, degree_range = "exact", None, None
    else:
        # The entries are either every monomial of the defect or, for an
        # antisymmetric A, the largest tuple of each orbit, whose members
        # share its degree and its value up to sign.  Either way the lowest
        # and highest nonzero blocks bound the defect's degrees, and the
        # lead of the highest, whose keys are the largest, is the defect's.
        high = low
        for degree in range(degrees[-1], low, -1):
            entry = lead(degree)
            if entry is not None:
                high, highest = degree, entry
                break
        degree_range = (low, high)
        jac_witness = highest.lead()
        above_truncation = truncation_degree is not None and low > truncation_degree + 2
        # The defect vanishes at mu = 0 when every block does; the blocks
        # are read upwards and the first that does not ends the test.
        status = (
            "truncation-defect"
            if above_truncation or all(block(d).vanishes_at_mu_zero() for d in range(low, high + 1))
            else "violation"
        )
    return LieAxiomReport(
        antisymmetry_witness=anti_witness,
        constants_witness=raw.constants_witness,
        jacobi_status=status,
        jacobi_witness=jac_witness,
        defect_degree_range=degree_range,
    )


# ---------------------------------------------------------------------------
# Omega extraction
# ---------------------------------------------------------------------------


def extract_omega(raw: RawLieKernel) -> Matrix:
    """Read omega_ij from the part of A linear in the first slot at zero.

    Requires A(0, sigma') = 0.  The first-slot-linear part must be linear in
    the second slot and antisymmetric; the offending term that leads in the
    order of `Poly.leading_term` is raised as the witness.  One pass reads
    each term's slot degrees once and keeps the (1, 1) part for the matrix.
    Ker omega is the returned matrix's `nullspace()`.
    """
    n, a, width = raw.n, raw.a, 2 * raw.n
    offence, bilinear = None, {}
    for exps, coeff in a.terms.items():
        u_deg, v_deg = sum(exps[:width]), sum(exps[width:])
        if u_deg == 1 and v_deg == 1:
            bilinear[exps] = coeff
        elif u_deg <= 1:
            key = (u_deg + v_deg, exps)
            if offence is None or key > offence[0]:
                offence = key, u_deg, coeff
    if offence is not None:
        (_, exps), u_deg, coeff = offence
        reason = (
            "A(0, sigma') != 0" if u_deg == 0
            else "first-slot derivative at zero is not linear in the second slot"
        )
        raise LieKernelError(f"{reason}: term {Poly.monomial(a.space, exps, coeff)}", witness=(exps, coeff))
    omega = bilinear_form(Poly(a.space, bilinear), n).transpose()
    if not omega.is_antisymmetric:
        raise LieKernelError("omega is not antisymmetric", witness=omega)
    return omega


# ---------------------------------------------------------------------------
# Generating-function classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HClass:
    """Classification of an odd coefficient list a1, a3, a5, ...

    tag "sinh":    h = c*sinh(mu_*x); reported as (mu_squared, scale = c*mu_)
                   to stay inside the field without square roots.
    tag "linear":  h = c*x; scale = c.
    tag "zero":    h identically zero.
    tag "neither": the recurrence a_{k+2}(k+1)(k+2) = mu^2 a_k fails at
                   witness_index (expected vs found recorded).
    """

    tag: str
    mu_squared: scalars.Coefficient | None = None
    scale: scalars.Coefficient | None = None
    witness_index: int | None = None
    expected: scalars.Coefficient | None = None
    found: scalars.Coefficient | None = None


def classify_h(series: Sequence[scalars.Coefficient]) -> HClass:
    """Classify an odd-coefficient list against h'' = mu^2 * h.

    The list gives a1, a3, a5, ... up to the truncation order.  A leading
    zero with any nonzero follower is unclassifiable (a generating function
    with h'(0) = 0 is identically zero).
    """
    series = list(series)
    if not series:
        raise ValueError("empty coefficient list")
    a1 = series[0]
    if not a1:
        for idx, ak in enumerate(series[1:], start=1):
            if ak:
                return HClass(
                    tag="neither",
                    witness_index=2 * idx + 1,
                    expected=scalars.ZERO,
                    found=ak,
                )
        return HClass(tag="zero")
    if len(series) == 1:
        return HClass(tag="linear", scale=a1)
    mu2 = (series[1].scale_int(6)) / a1
    for idx in range(1, len(series) - 1):
        k = 2 * idx + 1
        expected = mu2 * series[idx] / scalars.Coefficient.from_int((k + 1) * (k + 2))
        if series[idx + 1] != expected:
            return HClass(
                tag="neither",
                witness_index=k + 2,
                expected=expected,
                found=series[idx + 1],
            )
    if not mu2:
        return HClass(tag="linear", scale=a1)
    return HClass(tag="sinh", mu_squared=mu2, scale=a1)


# ---------------------------------------------------------------------------
# Structured kernels and the fitting pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuredLieKernel:
    """A bracket kernel in normal form: coboundary dressing times h(w)."""

    n: int
    chi: Poly
    omega: Matrix
    h_series: tuple[scalars.Coefficient, ...]

    def __post_init__(self):
        check_dimension(self.n)
        if self.chi.space != sigma_space(self.n):
            raise SpaceMismatchError("chi must live on sigma space")
        if self.chi.constant_term():
            raise ValueError("chi must vanish at sigma = 0")
        if not isinstance(self.h_series, tuple) or not all(
            isinstance(c, scalars.Coefficient) for c in self.h_series
        ):
            raise TypeError("h_series must be a tuple of Coefficients")
        if self.omega.nrows != 2 * self.n or self.omega.ncols != 2 * self.n:
            raise DimensionMismatchError("omega must be 2n x 2n")
        if not self.omega.is_antisymmetric:
            raise ValueError("omega must be antisymmetric")

    def expand(self, truncation_degree: int) -> RawLieKernel:
        """The kernel as a polynomial, truncated at the given total degree."""
        if truncation_degree < 0:
            raise ValueError("truncation_degree must be non-negative")
        w = bilinear_pair_poly(self.omega.transpose(), self.n)
        powers = _dressed_powers(self.chi, w, truncation_degree)
        a = sum((d.scale(c) for c, d in zip(self.h_series, powers)), Poly.zero(w.space))
        return RawLieKernel(self.n, a)


@dataclass(frozen=True)
class CenterGenerator:
    generator: Poly
    verified: bool


@dataclass(frozen=True)
class Theorem2Report:
    """Everything the classification pipeline established about a kernel;
    kernel_basis is omega's `nullspace()`, and `rank` is derived from both."""

    n: int
    fit_degree: int
    status: str  # "moyal-class" | "poisson-class" | "degenerate" | "neither" | "axioms-failed"
    axioms: LieAxiomReport
    omega: Matrix | None = None
    kernel_basis: list[Vector] = field(default_factory=list)
    chi: Poly | None = None
    h_series: tuple[scalars.Coefficient, ...] | None = None
    h_class: HClass | None = None
    residual_witness: tuple[Exponents, scalars.Coefficient] | None = None
    failure: str | None = None
    center_generators: list[CenterGenerator] = field(default_factory=list)
    isomorphism_note: str | None = None

    @property
    def rank(self) -> int | None:
        return None if self.omega is None else self.omega.ncols - len(self.kernel_basis)

    @property
    def passed(self) -> bool:
        return self.status in ("moyal-class", "poisson-class", "degenerate")


def _dressed_powers(chi: Poly, w: Poly, top: int) -> Iterator[Poly]:
    """exp(delta chi) * w^k truncated at top, for k = 1 and then each odd k with 2k <= top.

    w has degree 2, so the dressing is built once, through top - 2, in packed
    form: delta chi is lifted straight from the numerators of chi
    (`poly.lift_slots` with the coboundary's three slot maps) and w with the
    identity slot map, both over their denominators, each lift given the
    scale and norm (`poly.lift_scale`) the digits are sized from.
    `poly.exp_blocks` sums the exponential by Horner's rule on integers, the
    1/k! and the denominators riding in the scale and the denominator; the
    dressed powers are block products through top (`poly.product_blocks`),
    by w and then by w^2, and each is unlifted once.

    One digit width serves the whole chain.  With |.|_1 the sum of the
    absolute digit values of a form, a digit or partial sum of a product is
    at most the product of the two |.|_1, of a sum the sum of theirs, and a
    truncation only drops digits.  So every digit of the dressing is at most
    E = `poly.exp_bound`, read from |delta chi|_1, its scale and
    denominator, and the number of steps through top - 2; every digit of
    dress * w^k is at most E |w|_1^k, and of w^2, built only when K >= 3,
    at most |w|_1^2.  The digits are chosen for E |w|_1^K, K the last odd
    power built, which bounds them all when w is nonzero (|w|_1 >= 1 and
    E >= 1), and the lifted w and delta chi too (E >= |delta chi|_1 once
    a step multiplies by it).  |delta chi|_1 is bounded before anything
    is lifted, by 3 * 2^deg |numerators of chi|_1 (three slot maps, each
    image at most 2^deg times its term), and the number of steps by
    (top - 2) // 2, delta chi having no term below degree 2; E grows with
    both.  The bound is reached: for chi = 0, w = c u1 v1 and top 2 to 5,
    E = 1 and the one digit of dress * w is c.
    """
    pair = w.space
    (c, den), (w_num, w_den) = chi.split_denominator(), w.split_denominator()
    odd = range(3, top // 2 + 1, 2)
    c_scaled, w_scaled = lift_scale(c), lift_scale(w_num)
    delta_norm = 3 * c_scaled[1] << max(c.total_degree(), 0)
    dress_bound = exp_bound(delta_norm, c_scaled[0], den, max(top - 2, 0) // 2)
    bits = digit_width(dress_bound * w_scaled[1] ** (odd[-1] if odd else 1))
    dress = exp_blocks(lift_slots(c, pair, COBOUNDARY_MAPS, bits, c_scaled).over(den), top - 2)
    w_blocks = lift_slots(w_num, pair, ((1, "u", "v"),), bits, w_scaled).over(w_den).by_degree()
    dressed = product_blocks(dress, w_blocks, top)
    yield unlift_blocks(dressed, pair)
    w_squared = product_blocks(w_blocks, w_blocks, top) if odd else {}
    for _ in odd:
        dressed = product_blocks(dressed, w_squared, top)
        yield unlift_blocks(dressed, pair)


def _fit_structured(
    a: Poly, n: int, w: Poly, fit_degree: int
) -> tuple[Poly, list[scalars.Coefficient], tuple | None]:
    """Solve A = exp(coboundary chi) * h(w) up to fit_degree, in two passes.

    Returns (chi, h_series, residual_witness); a non-None witness means the
    input is not of normal form at this degree and the other outputs are
    partial.  h is normalized with h'(0) = 1, the scale being carried by w.

    Pass 1 reads chi off A alone: the bidegree-(2, d-2) part of
    dress * h(w) is (delta chi_{d-2}) * w, so chi_{d-2} is that part of A
    divided by w.  A nonzero remainder at degree d ends the pass; its lead
    is kept as the witness, and pass 2 stops at top = d - 1.  Pass 2 forms
    rest = A - dress * h(w) through top once, reading each odd h_k off the
    lead of w^k.  chi_j and h_k only reach degrees >= j + 2 and >= 2k, so
    the lowest part of a nonzero rest is the residual at the first degree
    that no (chi, h) fits; its lead is the witness, and chi is cut to the
    terms fixed by that degree.
    """
    width = 2 * n
    sig = sigma_space(n)
    chi = Poly.zero(sig)
    top, pending = fit_degree, None
    # The bidegree-(2, d - 2) terms of A, by d, read in one pass.
    parts: dict[int, dict] = {}
    for exps, coeff in a.terms.items():
        if sum(exps[:width]) == 2:
            d = sum(exps)
            if 4 <= d <= fit_degree:
                parts.setdefault(d, {})[exps] = coeff
    for d in range(4, fit_degree + 1):
        quotient, rem = divide_exact(Poly(w.space, parts.get(d, {})), w)
        if not rem.is_zero:
            top, pending = d - 1, rem.leading_term()
            break
        # w has bidegree (1, 1), so every quotient term is some
        # c * u_i * v^e; it adds -c * u_i * u^e / (d - 2) to chi.
        shifted = []
        for exps, coeff in quotient.terms.items():
            chi_exps = list(exps[width:])
            chi_exps[exps.index(1)] += 1
            shifted.append((chi_exps, -coeff))
        chi = chi + Poly.from_terms(sig, shifted).scale_fraction(Fraction(1, d - 2))

    powers = _dressed_powers(chi, w, top)
    rest = a.truncate_degree(top) - next(powers)
    series = [scalars.ONE]
    for k, dressed in zip(count(3, 2), powers):
        # The degree-2k part of dress * w^k is w^k.
        lead_exps, lead_coeff = dressed.homogeneous_component(2 * k).leading_term()
        ratio = rest.terms.get(lead_exps, scalars.ZERO) / lead_coeff
        rest = rest - dressed.scale(ratio)
        series.append(ratio)
    if rest.is_zero:
        return chi, series, pending
    d = min(map(sum, rest.terms))
    return chi.truncate_degree(d - 2), series, rest.homogeneous_component(d).leading_term()


def apply_bracket_kernel(raw: RawLieKernel, f: Poly, g: Poly) -> Poly:
    """One bidifferential application of the kernel to a pair of symbols."""
    return BiDiff(raw.a).apply(f, g)


def center_generators_from_kernel(
    raw: RawLieKernel,
    kernel_basis: list[Vector],
    max_degree: int,
    verify_degree: int,
) -> list[CenterGenerator]:
    """Monomials in the coordinates dual to Ker omega, bracket-verified.

    A candidate c is verified when the kernel applied to c and each test
    monomial g of degree at most verify_degree vanishes, and that is read off
    the operator of A without applying it to any g.  Grouped by v-block beta,
    the operator sends c (x) g to sum_beta P_beta(c) d^beta g, each P_beta a
    phase-space operator.  For g = z^gamma the beta = gamma term is
    gamma! P_gamma(c), and every other beta <= gamma has |beta| < |gamma|;
    so, by induction on the degree of g, all those g give 0 exactly when
    every P_beta(c) with |beta| <= verify_degree is 0.  An antisymmetric
    kernel has apply(g, c) = -apply(c, g), so the v-blocks decide; otherwise
    the operators grouped by u-block must kill c too.  One degree-guard check
    per candidate covers its largest test product, deg c + verify_degree, so
    a guard error no longer depends on which test monomial fails first.  No
    test monomial is built, so only the candidates meet
    `cocycle.CENTER_MONOMIAL_LIMIT` (ValueError above it).
    """
    if min(max_degree, verify_degree) < 0:
        raise ValueError("max_degree and verify_degree must be non-negative")
    space = phase_space(raw.n)
    width = len(space)
    antisymmetric = raw.antisymmetry_witness is None
    blocks: dict[tuple[bool, Exponents], dict] = {}
    for exps, coeff in DiffOp.from_sigma_poly(raw.a).poly.terms.items():
        u, v = exps[:width], exps[width:]
        if sum(v) <= verify_degree:
            blocks.setdefault((False, v), {})[u] = coeff
        if not antisymmetric and sum(u) <= verify_degree:
            blocks.setdefault((True, u), {})[v] = coeff
    operators = [DiffOp(Poly(space, terms)) for terms in blocks.values()]
    out = []
    for cand in dual_monomials(raw.n, kernel_basis, max_degree):
        check_degree(cand.total_degree() + verify_degree, "operand")
        verified = not any(op.apply_once(cand) for op in operators)
        out.append(CenterGenerator(generator=cand, verified=verified))
    return out


# Status of a fitted kernel, and the bracket it is isomorphic to, by the tag of h.
_H_CLASS_OUTCOMES = {
    "sinh": ("moyal-class", "the hyperbolic-sine bracket"),
    "linear": ("poisson-class", "the canonical antisymmetric-form bracket"),
}


def theorem2_pipeline(
    raw: RawLieKernel,
    fit_degree: int,
    center_degree: int = 2,
    verify_degree: int | None = None,
) -> Theorem2Report:
    """Classify a bracket kernel up to the given fit degree.

    Nondegenerate omega: fit the coboundary dressing and the odd generating
    series degreewise, classify the series, and verify the reconstruction
    reproduces the kernel exactly through fit_degree.  Degenerate omega:
    enumerate and verify center generators instead.

    The stages run in this order, each once, and later stages reuse what
    earlier ones found:
    1. the antisymmetry and constants witnesses;
    2. when both are None, `extract_omega`, its `nullspace` and, for a
       nondegenerate omega, `_fit_structured` and, when the fit leaves no
       witness, `classify_h` of its series;
    3. the Lie axioms, truncated at fit_degree.  When `classify_h` finds
       h sinh or linear, the Jacobi blocks at or below fit_degree + 2
       vanish (below) and are not built; otherwise they are built as in
       `lie_axiom_check`.  The report is the same either way;
    4. the verdict.  A failed axiom gives "axioms-failed" before any
       verdict of stage 2.  A MoyalError raised in stage 2 is kept until
       the axioms pass: then an `extract_omega` failure gives "neither",
       and any other is raised.

    Why the low blocks vanish, T being fit_degree.  A(u, v) = -A(v, u) and
    A(0, v) = 0, so A has no constant term, and a degree-1 term would have
    an empty u-block or, by antisymmetry, an empty v-block: every term of A
    has degree >= 2.  The fit left no witness, so the terms of A of degree
    <= T are those of B = exp(delta chi) h(w), h the fitted series.
    1. A block of degree m <= T + 2 of the defect J_A sums products of a
       term of A(u, v+w) and one of A(v, w); their degrees, each >= 2, add
       to m, so each is <= T, where A is B.  So J_A and J_B agree through
       degree T + 2.  In J_B, delta chi(u, v+w) + delta chi(v, w) =
       chi(u) + chi(v) + chi(w) - chi(u+v+w) = D3 chi, symmetric in
       u, v, w, and w(u, v+w) = x - z, with x = w(u, v), y = w(v, w) and
       z = w(w, u), since w is bilinear and antisymmetric.  So
       J_B = exp(D3 chi) F_h(x, y, z), F_h = h(x-z) h(y) + h(y-x) h(z) +
       h(z-y) h(x).  x, y and z have degree 2 and exp(D3 chi) has constant
       term 1 and no negative degree, so J_B has no term of degree <= T + 2
       when F_h has none of degree <= (T + 2) // 2.
    2. F_h is identically 0 for h = x, term by term, and for
       h = sinh(mu x)/mu, by sinh(a-b) = sinh a cosh b - cosh a sinh b:
       the six products cancel in pairs.  Its coefficients are then
       polynomials in mu^2 that vanish for every real mu, so they vanish
       for mu^2 = 6 c_3 in the field too.  The degree-m part of F_h reads
       only the c_j with j <= m - 1 <= T // 2, all of them fitted, and when
       `classify_h` accepts the series they are those of x or of
       sinh(mu x)/mu.  So F_h has no term of degree <= (T + 2) // 2.
    The converse bears only on how many blocks are built, never on the
    report: when `classify_h` rejects, some low block is nonzero (the
    census in tests/test_low_blocks.py).
    """
    if min(fit_degree, center_degree, verify_degree or 0) < 0:
        raise ValueError("fit_degree, center_degree and verify_degree must be non-negative")
    omega = basis = chi = series = witness = h_class = error = None
    if raw.antisymmetry_witness is None and raw.constants_witness is None:
        try:
            omega = extract_omega(raw)
            basis = omega.nullspace()
            if not basis:
                w = bilinear_pair_poly(omega.transpose(), raw.n)
                chi, series, witness = _fit_structured(raw.a, raw.n, w, fit_degree)
                if witness is None:
                    h_class = classify_h(series)
        except MoyalError as err:
            error = err
    low_blocks_vanish = h_class is not None and h_class.tag in _H_CLASS_OUTCOMES
    axioms = _axiom_report(raw, fit_degree, low_blocks_vanish)
    report = partial(Theorem2Report, n=raw.n, fit_degree=fit_degree, axioms=axioms)
    if not axioms.passed:
        return report(
            status="axioms-failed", failure="antisymmetry/Jacobi/constants check failed"
        )
    if isinstance(error, LieKernelError) and omega is None:
        return report(status="neither", failure=str(error))
    if error is not None:
        raise error
    report = partial(report, omega=omega, kernel_basis=basis)
    if basis:
        verify = center_degree if verify_degree is None else verify_degree
        return report(
            status="degenerate",
            center_generators=center_generators_from_kernel(raw, basis, center_degree, verify),
            isomorphism_note=(
                "omega is degenerate: the kernel-dual coordinates generate a "
                "nontrivial center; no product-type normal form applies"
            ),
        )
    if witness is not None:
        return report(
            status="neither",
            chi=chi,
            residual_witness=witness,
            failure="kernel is not of coboundary-dressed h(w) form at this degree",
        )
    status, like = _H_CLASS_OUTCOMES.get(h_class.tag, ("neither", None))
    note = None if like is None else (
        f"isomorphic to {like}: the ordering-change map built from chi removes the dressing"
    )
    return report(
        status=status,
        chi=chi,
        h_series=tuple(series),
        h_class=h_class,
        isomorphism_note=note,
    )


# ---------------------------------------------------------------------------
# Bidifferential coefficient table (configuration dimension 1)
# ---------------------------------------------------------------------------


def bidiff_coefficients(
    raw: RawLieKernel, rmax: int, smax: int
) -> dict[tuple[int, int, int, int], scalars.Coefficient]:
    """The coefficient table of the bracket as a double derivative series.

    Entry (r, j, s, k) multiplies (d_q^j d_p^(r-j) f) (d_q^k d_p^(s-k) g) in
    the expansion of the bracket; it is r! s! times the coefficient of that
    derivative in the operator DiffOp.from_sigma_poly(A), i.e. binom(r,j) binom(s,k)
    (-i)^(r+s) times the corresponding derivative of A at zero.  Only n = 1
    is supported.  The table is dense, about (rmax*smax)^2/4 entries, so
    rmax + smax must fit the degree guard.
    """
    if raw.n != 1:
        raise ValueError("the coefficient table is defined for n = 1 only")
    if rmax < 0 or smax < 0:
        raise ValueError("rmax and smax must be non-negative")
    check_degree(rmax + smax, "coefficient table (rmax + smax)")
    op = DiffOp.from_sigma_poly(raw.a).poly.terms
    table: dict[tuple[int, int, int, int], scalars.Coefficient] = {}
    for r in range(rmax + 1):
        for j in range(r + 1):
            for s in range(smax + 1):
                for k in range(s + 1):
                    coeff = op.get((j, r - j, k, s - k), scalars.ZERO)
                    table[(r, j, s, k)] = coeff.scale_int(factorial(r) * factorial(s))
    return table

