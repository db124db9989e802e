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

Packed form.  The Jacobi check runs on exact integers: A(u, v+w) and half of
A(v, w) are multiplied once on packed keys (see `poly.lifted_mul`), and
each product term is filed under the representative of its orbit of block
permutations, the arrangement with the blocks in descending order.  The
report is a verdict, its witnesses and the defect's degree range, all read
from the representatives; only `jacobi_defect` expands the full defect (the
CLI renders its mu-order parts from it).

Convention sheet (pinned by the Moyal fixture, see tests): with the bracket
kernel of the symmetric-ordering product, the first-slot derivative matrix is

    omega_ij := d/du_i A(0, sigma')|_linear = coefficient of u_i v_j,

and omega = -M/mu where M is the product kernel's antisymmetric matrix; in
particular omega = -J for the Moyal/hyperbolic-sine family.

Nondegenerate kernels are fitted degreewise to the normal form

    A = exp(chi(u) + chi(v) - chi(u+v)) * h(w),   w = sum omega_ij u_i v_j,

with gauge-fixed chi and h'(0) = 1 (w is read off A itself, which absorbs
the only scale freedom of the pair (omega, h)).  The odd series h is then
classified: h'' = mu^2 h termwise forces either c*sinh(mu*x) (mu^2 != 0) or
c*x, the only generating functions compatible with Jacobi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import factorial
from typing import Sequence

from . import scalars
from .cocycle import dual_monomials
from .errors import DegreeGuardError, MoyalError, SpaceMismatchError
from .linalg import Matrix, Vector
from .poly import (
    Exponents,
    Poly,
    divide_exact,
    get_degree_guard,
    lifted_mul,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
    unlift,
)
from .star import (
    BiDiff,
    StarKernel,
    bilinear_form,
    bilinear_pair_poly,
    coboundary,
    on_slots,
    phase_dimension,
    slot_degrees,
    slot_swap,
)


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
        if self.a.space != pair_space(self.n):
            raise SpaceMismatchError("A must live on pair space u1..u2n, v1..v2n")

    @cached_property
    def antisymmetry_witness(self) -> tuple[Exponents, scalars.Coefficient] | None:
        """The leading term of A(u, v) + A(v, u); None when A is antisymmetric."""
        return _first_term(self.a + slot_swap(self.a))


def exp_truncated(p: Poly, max_degree: int) -> Poly:
    """exp(p) truncated at total degree max_degree; p must have no constant term."""
    if p.constant_term():
        raise ValueError("exponent must have zero constant term")
    out = Poly.one(p.space)
    power = Poly.one(p.space)
    k = 1
    while True:
        power = power.mul_truncated(p, max_degree).scale_fraction(Fraction(1, k))
        if power.is_zero:
            return out
        out = out + power
        k += 1


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


def _defect_representatives(raw: RawLieKernel, antisymmetric: bool) -> Poly:
    """The Jacobi defect at one exponent tuple per orbit of its blocks.

    For an antisymmetric A the defect is the sum over S3 of sgn(pi) Q o pi,
    Q = A(u,v+w) H(v,w), where H holds the terms of A(v,w) whose v-block is
    lexicographically above its w-block (A = H - H o swap).  Each term of Q is
    added, with the sign of the sorting permutation, at the arrangement of its
    blocks in descending order; arrangements with two equal blocks cancel.
    Otherwise the defect is the cyclic sum of P = A(u,v+w) A(v,w), and each
    term of P goes to the largest of its three rotations (three times when
    the three blocks agree).  Either way the representative is the largest
    tuple of its orbit.

    The product runs in packed form (see `poly.lifted_mul`) on D * A, D the
    lcm of the denominators of A (`Poly.split_denominator`), and the values
    are divided by D^2.
    """
    (a, den), tri = raw.a.split_denominator(), triple_space(raw.n)
    width = 2 * raw.n
    half = Poly(a.space, {e: c for e, c in a.terms.items() if e[:width] > e[width:]})
    product_terms, int_den, layout = lifted_mul(
        on_slots(a, tri, "u", "vw"), on_slots(half if antisymmetric else a, tri, "v", "w")
    )
    _, bits, mu_bits = layout
    block = width * bits
    mask = (1 << block) - 1
    mu_mask = (1 << mu_bits) - 1
    v_shift, u_shift, degree_shift = mu_bits + block, mu_bits + 2 * block, mu_bits + 3 * block
    folded: dict[int, tuple[int, int]] = {}
    for key, (re, im) in product_terms.items():
        x, y, z = key >> u_shift & mask, key >> v_shift & mask, key >> mu_bits & mask
        if antisymmetric:
            if x == y or y == z or x == z:
                continue
            sign = 1
            if x < y:
                x, y, sign = y, x, -sign
            if y < z:
                y, z, sign = z, y, -sign
                if x < y:
                    x, y, sign = y, x, -sign
        else:
            sign = 3 if x == y == z else 1
            x, y, z = max((x, y, z), (y, z, x), (z, x, y))
        rep = (
            key >> degree_shift << degree_shift
            | x << u_shift | y << v_shift | z << mu_bits | key & mu_mask
        )
        acc = folded.get(rep)
        re, im = sign * re, sign * im
        folded[rep] = (re, im) if acc is None else (acc[0] + re, acc[1] + im)
    return unlift((folded, int_den, layout), tri).over(den * den)


def jacobi_defect(raw: RawLieKernel) -> Poly:
    """A(u,v+w)A(v,w) + A(v,w+u)A(w,u) + A(w,u+v)A(u,v) over triple space.

    Built from one packed product and its orbit representatives (see
    `_defect_representatives`), then expanded over the orbits: the value at
    a permuted arrangement is sgn(pi) times the representative's for an
    antisymmetric kernel (the defect is then alternating), and the
    representative's at each rotation otherwise.
    """
    antisymmetric = raw.antisymmetry_witness is None
    reps = _defect_representatives(raw, antisymmetric)
    width = len(reps.space) // 3
    negated: dict[scalars.Coefficient, scalars.Coefficient] = {}
    terms: dict[Exponents, scalars.Coefficient] = {}
    for exps, c in reps.terms.items():
        x, y, z = exps[:width], exps[width : 2 * width], exps[2 * width :]
        terms[x + y + z] = terms[y + z + x] = terms[z + x + y] = c
        if antisymmetric:
            m = negated.get(c)
            if m is None:
                m = negated[c] = -c
            terms[y + x + z] = terms[x + z + y] = terms[z + y + x] = m
    return Poly(reps.space, terms)


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
    """
    n = raw.n
    a = raw.a

    anti_witness = raw.antisymmetry_witness
    const_witness = _first_term(
        Poly(a.space, {e: c for e, c in a.terms.items() if slot_degrees(e, 2 * n)[0] == 0})
    )
    reps = _defect_representatives(raw, anti_witness is None)
    # Each representative is the largest tuple of its orbit, so the leading
    # representative is the leading term of the defect, and an orbit shares
    # its degree and its value up to sign.
    jac_witness = _first_term(reps)
    if jac_witness is None:
        status, degree_range = "exact", None
    else:
        degrees = [sum(e) for e in reps.terms]
        degree_range = (min(degrees), max(degrees))
        above_truncation = (
            truncation_degree is not None and degree_range[0] > truncation_degree + 2
        )
        # Zero at mu = 0 means a positive mu-valuation: no pole, no constant term.
        vanishes_at_zero = all(c.mu_valuation() > 0 for c in reps.terms.values())
        status = (
            "truncation-defect" if (vanishes_at_zero or above_truncation) else "violation"
        )
    return LieAxiomReport(
        antisymmetry_witness=anti_witness,
        constants_witness=const_witness,
        jacobi_status=status,
        jacobi_witness=jac_witness,
        defect_degree_range=degree_range,
    )


# ---------------------------------------------------------------------------
# Omega extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaData:
    omega: Matrix
    rank: int
    kernel_basis: list[Vector]

    @property
    def nondegenerate(self) -> bool:
        return not self.kernel_basis


def extract_omega(raw: RawLieKernel) -> OmegaData:
    """Read omega_ij from the part of A linear in the first slot at zero.

    Requires A(0, sigma') = 0.  The first-slot-linear part must be linear in
    the second slot and antisymmetric; any offending term is raised as a
    witness.
    """
    n, a = raw.n, raw.a
    for exps, coeff in a.sorted_terms():
        u_deg, v_deg = slot_degrees(exps, 2 * n)
        if u_deg == 0:
            raise LieKernelError(
                f"A(0, sigma') != 0: term {Poly.monomial(a.space, exps, coeff)}",
                witness=(exps, coeff),
            )
        if u_deg == 1 and v_deg != 1:
            raise LieKernelError(
                "first-slot derivative at zero is not linear in the second "
                f"slot: term {Poly.monomial(a.space, exps, coeff)}",
                witness=(exps, coeff),
            )
    omega = bilinear_form(a, n).transpose()
    if not omega.is_antisymmetric:
        raise LieKernelError("omega is not antisymmetric", witness=omega)
    return OmegaData(
        omega=omega, rank=omega.rank(), kernel_basis=omega.nullspace()
    )


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
        if self.chi.space != sigma_space(self.n):
            raise SpaceMismatchError("chi must live on sigma space")
        if not self.omega.is_antisymmetric:
            raise ValueError("omega must be antisymmetric")

    def expand(self, truncation_degree: int) -> RawLieKernel:
        """The kernel as a polynomial, truncated at the given total degree."""
        w = bilinear_pair_poly(self.omega.transpose(), self.n)
        hw = Poly.zero(w.space)
        for idx, coeff in enumerate(self.h_series):
            power = 2 * idx + 1
            if 2 * power > truncation_degree and idx > 0:
                break
            if coeff:
                hw = hw + (w**power).scale(coeff)
        dress = exp_truncated(coboundary(self.chi), truncation_degree)
        return RawLieKernel(
            self.n, dress.mul_truncated(hw, truncation_degree)
        )


@dataclass(frozen=True)
class CenterGenerator:
    generator: Poly
    verified: bool


@dataclass(frozen=True)
class Theorem2Report:
    """Everything the classification pipeline established about a kernel."""

    n: int
    fit_degree: int
    status: str  # "moyal-class" | "poisson-class" | "degenerate" | "neither" | "axioms-failed"
    axioms: LieAxiomReport
    omega: Matrix | None = None
    rank: int | None = None
    kernel_basis: list[Vector] = field(default_factory=list)
    chi: Poly | None = None
    h_series: tuple[scalars.Coefficient, ...] | None = None
    h_class: HClass | None = None
    residual_witness: tuple[Exponents, scalars.Coefficient] | None = None
    failure: str | None = None
    center_generators: list[CenterGenerator] = field(default_factory=list)
    isomorphism_note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status in ("moyal-class", "poisson-class", "degenerate")


def _fit_structured(
    a: Poly, n: int, w: Poly, fit_degree: int
) -> tuple[Poly, list[scalars.Coefficient], tuple | None]:
    """Degreewise solve of A = exp(coboundary chi) * h(w) up to fit_degree.

    Returns (chi, h_series, residual_witness); a non-None witness means the
    input is not of normal form at this degree and the other outputs are
    partial.  h is normalized with h'(0) = 1, the scale being carried by w.
    """
    width = 2 * n
    sig = sigma_space(n)
    chi = Poly.zero(sig)
    found: dict[int, scalars.Coefficient] = {1: scalars.ONE}
    a_cut = a.truncate_degree(fit_degree)
    # The odd powers w^k the fit can reach (2k <= fit_degree), each built once.
    w_powers = {1: w.truncate_degree(fit_degree)}
    for k in range(3, fit_degree // 2 + 1, 2):
        w_powers[k] = w_powers[k - 2] * w * w
    # exp(coboundary chi), rebuilt only when chi changes.
    dress = exp_truncated(coboundary(chi), fit_degree)

    def reconstruction() -> Poly:
        hw = Poly.zero(w.space)
        for power, coeff in found.items():
            if coeff:
                hw = hw + w_powers[power].scale(coeff)
        return dress.mul_truncated(hw, fit_degree)

    for d in range(3, fit_degree + 1):
        residual = (a_cut - reconstruction()).homogeneous_component(d)
        if d >= 4:
            terms = residual.terms.items()
            e_part = Poly(w.space, {e: c for e, c in terms if slot_degrees(e, width) == (2, d - 2)})
            if not e_part.is_zero:
                quotient, rem = divide_exact(e_part, w)
                if not rem.is_zero:
                    return chi, _series_list(found), rem.leading_term()
                # A quotient term c * u_i * v^e adds -c * u_i * u^e / (d - 2) to chi.
                shifted = []
                for exps, coeff in quotient.terms.items():
                    if slot_degrees(exps, width)[0] != 1:
                        return chi, _series_list(found), (exps, coeff)
                    chi_exps = list(exps[width:])
                    chi_exps[exps.index(1)] += 1
                    shifted.append((chi_exps, -coeff))
                chi_new = Poly.from_terms(sig, shifted)
                chi = chi + chi_new.scale_fraction(Fraction(1, d - 2))
                dress = exp_truncated(coboundary(chi), fit_degree)
                residual = (a_cut - reconstruction()).homogeneous_component(d)
        if d % 2 == 0 and (d // 2) % 2 == 1 and d >= 6:
            k = d // 2
            wk = w_powers[k]
            if residual.is_zero:
                found[k] = scalars.ZERO
                continue
            lead_exps, lead_coeff = wk.leading_term()
            cand = residual.terms.get(lead_exps)
            if cand is None:
                return chi, _series_list(found), residual.leading_term()
            ratio = cand / lead_coeff
            if residual != wk.scale(ratio):
                diff = residual - wk.scale(ratio)
                return chi, _series_list(found), diff.leading_term()
            found[k] = ratio
        elif not residual.is_zero:
            return chi, _series_list(found), residual.leading_term()

    final = (a_cut - reconstruction()).truncate_degree(fit_degree)
    if not final.is_zero:  # pragma: no cover - the degree loop should catch it
        return chi, _series_list(found), final.leading_term()
    return chi, _series_list(found), None


def _series_list(found: dict[int, scalars.Coefficient]):
    max_k = max(found)
    ks = [k for k in range(1, max_k + 1) if k % 2 == 1]
    return [found.get(k, scalars.ZERO) for k in ks]


def apply_bracket_kernel(raw: RawLieKernel, f: Poly, g: Poly) -> Poly:
    """One bidifferential application of the kernel to a pair of symbols."""
    return BiDiff(raw.a).apply(f, g)


def bracket_kernel_of(kernel: StarKernel, truncation_degree: int) -> RawLieKernel:
    """The bracket kernel (exp(b) - swap) / (2 mu) of a product kernel, truncated."""
    b = kernel.exponent()
    eb = exp_truncated(b, truncation_degree)
    swapped = slot_swap(eb)
    return RawLieKernel(kernel.n, (eb - swapped).scale(scalars.HALF_INV_MU))


def center_generators_from_kernel(
    raw: RawLieKernel,
    kernel_basis: list[Vector],
    max_degree: int,
    verify_degree: int,
) -> list[CenterGenerator]:
    """Monomials in the coordinates dual to Ker omega, bracket-verified.

    For an antisymmetric kernel apply(g, f) is exactly -apply(f, g), so one
    side is applied per test monomial; otherwise both are.
    """
    space = phase_space(raw.n)
    op = BiDiff(raw.a)
    antisymmetric = raw.antisymmetry_witness is None
    monomials = [
        Poly.monomial(space, exps)
        for exps in product(range(verify_degree + 1), repeat=len(space))
        if sum(exps) <= verify_degree
    ]
    out = []
    for cand in dual_monomials(raw.n, kernel_basis, max_degree):
        verified = all(
            op.apply(cand, g).is_zero and (antisymmetric or op.apply(g, cand).is_zero)
            for g in monomials
        )
        out.append(CenterGenerator(generator=cand, verified=verified))
    return out


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
    """
    axioms = lie_axiom_check(raw, truncation_degree=fit_degree)
    if not axioms.passed:
        return Theorem2Report(
            n=raw.n,
            fit_degree=fit_degree,
            status="axioms-failed",
            axioms=axioms,
            failure="antisymmetry/Jacobi/constants check failed",
        )
    try:
        omega_data = extract_omega(raw)
    except LieKernelError as err:
        return Theorem2Report(
            n=raw.n,
            fit_degree=fit_degree,
            status="neither",
            axioms=axioms,
            failure=str(err),
        )
    if not omega_data.nondegenerate:
        gens = center_generators_from_kernel(
            raw,
            omega_data.kernel_basis,
            center_degree,
            center_degree if verify_degree is None else verify_degree,
        )
        return Theorem2Report(
            n=raw.n,
            fit_degree=fit_degree,
            status="degenerate",
            axioms=axioms,
            omega=omega_data.omega,
            rank=omega_data.rank,
            kernel_basis=omega_data.kernel_basis,
            center_generators=gens,
            isomorphism_note=(
                "omega is degenerate: the kernel-dual coordinates generate a "
                "nontrivial center; no product-type normal form applies"
            ),
        )
    w = bilinear_pair_poly(omega_data.omega.transpose(), raw.n)
    chi, series, witness = _fit_structured(raw.a, raw.n, w, fit_degree)
    if witness is not None:
        return Theorem2Report(
            n=raw.n,
            fit_degree=fit_degree,
            status="neither",
            axioms=axioms,
            omega=omega_data.omega,
            rank=omega_data.rank,
            chi=chi,
            residual_witness=witness,
            failure="kernel is not of coboundary-dressed h(w) form at this degree",
        )
    h_class = classify_h(series)
    if h_class.tag == "sinh":
        status = "moyal-class"
        note = (
            "isomorphic to the hyperbolic-sine bracket: the ordering-change "
            "map built from chi removes the dressing"
        )
    elif h_class.tag == "linear":
        status = "poisson-class"
        note = (
            "isomorphic to the canonical antisymmetric-form bracket: the "
            "ordering-change map built from chi removes the dressing"
        )
    else:
        status = "neither"
        note = None
    return Theorem2Report(
        n=raw.n,
        fit_degree=fit_degree,
        status=status,
        axioms=axioms,
        omega=omega_data.omega,
        rank=omega_data.rank,
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
    derivative in the compiled operator BiDiff(A), i.e. binom(r,j) binom(s,k)
    (-i)^(r+s) times the corresponding derivative of A at zero.  Only n = 1
    is supported.  The table is dense, about (rmax*smax)^2/4 entries, so
    rmax + smax must fit the degree guard.
    """
    if raw.n != 1:
        raise ValueError("the coefficient table is defined for n = 1 only")
    if rmax < 0 or smax < 0:
        raise ValueError("rmax and smax must be non-negative")
    guard = get_degree_guard()
    if rmax + smax > guard:
        raise DegreeGuardError(
            f"coefficient table order rmax + smax = {rmax + smax} would exceed the guard "
            f"({guard}); raise it with set_degree_guard or MOYAL_MAX_DEGREE"
        )
    op = BiDiff(raw.a).op.poly.terms
    table: dict[tuple[int, int, int, int], scalars.Coefficient] = {}
    for r in range(rmax + 1):
        for j in range(r + 1):
            for s in range(smax + 1):
                for k in range(s + 1):
                    coeff = op.get((j, r - j, k, s - k), scalars.ZERO)
                    table[(r, j, s, k)] = coeff.scale_int(factorial(r) * factorial(s))
    return table


def reconstruct_bracket(
    table: dict[tuple[int, int, int, int], scalars.Coefficient], f: Poly, g: Poly
) -> Poly:
    """Evaluate the bracket of two symbols from a coefficient table (n = 1).

    The table entries carry the binomial-times-derivative normalization, so
    the double series reads  sum b_{rj,sk}/(r! s!) (d^j_q d^(r-j)_p f)(...g).
    It is applied as BiDiff of the kernel whose u^(j, r-j) v^(k, s-k)
    coefficient is b_{rj,sk} / (r! s! (-i)^(r+s)).
    """
    if phase_dimension(f.space) != 1 or f.space != g.space:
        raise SpaceMismatchError("table reconstruction expects n = 1 symbols")
    kernel = Poly.from_terms(
        pair_space(1),
        (
            (
                (j, r - j, k, s - k),
                coeff.scale_fraction(Fraction(1, factorial(r) * factorial(s)))
                * scalars.neg_i_power(-(r + s)),
            )
            for (r, j, s, k), coeff in table.items()
        ),
    )
    return BiDiff(kernel).apply(f, g)
