"""Kernel analysis: decide associativity of exp(b) kernels and factor them.

The exponent b of a product kernel lives on pair space (slots u = sigma,
v = sigma').  The star product it induces is associative exactly when b is an
additive group 2-cocycle,

    b(v, w) - b(u+v, w) + b(u, v+w) - b(u, v) = 0,

together with the gauge normalization b(0, sigma) = b(sigma, 0) = 0.  For a
cocycle, the slot-swap antisymmetric part is forced to be bilinear, so it is
an antisymmetric matrix M; the symmetric part is forced to be the coboundary
chi(u) + chi(v) - chi(u+v) of a unique gauge-fixed chi (no constant, no
linear part), recovered degreewise from the slot diagonal:

    chi_d(sigma) = [symmetric part on the diagonal]_d / (2 - 2^d),  d >= 2.

That every normalised cocycle is such a coboundary plus an antisymmetric
bilinear form, the premise of `factorize`, is checked by exact rank in
tests/test_census.py (n = 1 to degree 6, n = 2 to degree 4, n = 3 to 3).

`factorize` runs the full pipeline and returns the (chi, M) data together
with an exact canonical (Darboux) basis for M: rank, conjugate-pair scalings,
and a basis of Ker M.  A nondegenerate M means the induced algebra has a
trivial center; when M is degenerate, the phase-space coordinates dual to
Ker M generate the center, which `center_basis` enumerates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import scalars
from .errors import FactorizationError, SpaceMismatchError
from .linalg import Matrix, Vector, skew_canonical
from .poly import (
    Exponents,
    Poly,
    Space,
    check_dimension,
    format_term,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from .star import (
    StarKernel,
    bilinear_form,
    coboundary,
    lift_slots,
    merge_slots,
    slot_degrees,
    slot_sum,
    swap_slots,
)


@dataclass(frozen=True)
class RawKernelExponent:
    """A candidate product-kernel exponent b over pair space, with b(0,0) = 0."""

    n: int
    b: Poly

    def __post_init__(self):
        check_dimension(self.n)
        if self.b.space != pair_space(self.n):
            raise SpaceMismatchError("b must live on pair space u1..u2n, v1..v2n")
        if self.b.constant_term():
            raise ValueError("b(0, 0) must vanish")


@dataclass(frozen=True)
class CocycleViolation:
    """Evidence that b is not a normalized 2-cocycle."""

    stage: str  # "normalization" or "cocycle"
    monomial: Exponents
    coefficient: scalars.Coefficient
    space_names: tuple[str, ...]
    point: tuple[int, ...] | None = None
    lhs: scalars.Coefficient | None = None
    rhs: scalars.Coefficient | None = None

    def monomial_str(self) -> str:
        return format_term(Space(self.space_names), self.monomial, self.coefficient)


def split_parts(b: Poly) -> tuple[Poly, Poly]:
    """(symmetric, antisymmetric) slot-swap parts of b."""
    swapped = swap_slots(b)
    return (b + swapped).scale_fraction(Fraction(1, 2)), (b - swapped).scale_fraction(Fraction(1, 2))


# The four signed slot maps of the cocycle defect b(v,w) - b(u+v,w) + b(u,v+w) - b(u,v).
_COCYCLE_MAPS = ((1, "v", "w"), (-1, "uv", "w"), (1, "u", "vw"), (-1, "u", "v"))


def cocycle_defect(raw: RawKernelExponent) -> Poly:
    """b(v,w) - b(u+v,w) + b(u,v+w) - b(u,v) over triple space."""
    return slot_sum(raw.b, triple_space(raw.n), *_COCYCLE_MAPS)


def cocycle_check(raw: RawKernelExponent) -> CocycleViolation | None:
    """None if b is a normalized 2-cocycle; otherwise a violation witness.

    The witness carries one nonzero monomial of the defect and, for cocycle
    failures, an integer point with the two unequal sides of the identity
    b(u,v) + b(u+v,w) = b(v,w) + b(u,v+w).  The defect is summed in packed
    form (`star.lift_slots`) on the numerators of b; the verdict, the
    leading term and the defect's degree are read off the `poly.Lifted` form,
    and only the leading term is turned back into a coefficient.
    """
    n = raw.n
    width = 2 * n
    b = raw.b
    for exps, coeff in b.sorted_terms():
        if 0 in slot_degrees(exps, width):
            return CocycleViolation(
                stage="normalization",
                monomial=exps,
                coefficient=coeff,
                space_names=b.space.names,
            )
    (numerators, den), tri = b.split_denominator(), triple_space(n)
    defect = lift_slots(numerators, tri, _COCYCLE_MAPS).over(den)
    if not defect.terms:
        return None
    exps, coeff = defect.lead()
    # The defect at a point is rhs - lhs: a seeded search of small integer
    # points, up to the defect's degree, for one where the two sides differ.
    rng = random.Random(1729)
    bound = max(defect.degrees()[1] + 2, 4)
    for _ in range(200):
        point = tuple(rng.randrange(1, bound) for _ in range(3 * width))
        values = [scalars.Coefficient.from_int(x) for x in point]
        u, v, w = values[:width], values[width : 2 * width], values[2 * width :]
        lhs = b.evaluate(u + v) + b.evaluate([a + c for a, c in zip(u, v)] + w)
        rhs = b.evaluate(v + w) + b.evaluate(u + [a + c for a, c in zip(v, w)])
        if lhs != rhs:
            return CocycleViolation(
                stage="cocycle",
                monomial=exps,
                coefficient=coeff,
                space_names=tri.names,
                point=point,
                lhs=lhs,
                rhs=rhs,
            )
    raise RuntimeError("failed to find a point where the two sides differ")  # pragma: no cover


@dataclass(frozen=True)
class AntisymmetricData:
    """The slot-swap split of a cocycle exponent and the canonical form of M."""

    symmetric: Poly
    antisymmetric: Poly
    m: Matrix
    rank: int
    darboux_basis: Matrix
    kernel_basis: list[Vector]
    pairings: list[scalars.Coefficient]

    @property
    def uniform_pairing(self) -> bool:
        return all(lam == self.pairings[0] for lam in self.pairings)


def extract_antisymmetric_form(raw: RawKernelExponent) -> AntisymmetricData:
    """Split b and read the antisymmetric part as a matrix, in canonical form.

    For a 2-cocycle the antisymmetric part is necessarily bilinear of
    bidegree (1,1); a higher-degree antisymmetric term means the cocycle
    check was skipped and is reported as an internal contradiction.
    """
    n = raw.n
    b_s, b_a = split_parts(raw.b)
    for exps, coeff in b_a.sorted_terms():
        if slot_degrees(exps, 2 * n) != (1, 1):
            raise FactorizationError(
                stage="extract_antisymmetric_form",
                message=(
                    "antisymmetric part is not bilinear (was cocycle_check "
                    f"skipped?); offending monomial {Poly.monomial(b_a.space, exps, coeff)}"
                ),
                witness=(exps, coeff),
            )
    m = bilinear_form(b_a, n)
    basis, pairings, kernel = skew_canonical(m)
    return AntisymmetricData(
        symmetric=b_s,
        antisymmetric=b_a,
        m=m,
        rank=2 * len(pairings),
        darboux_basis=basis,
        kernel_basis=kernel,
        pairings=pairings,
    )


def chi_extract(b_s: Poly) -> Poly:
    """The unique gauge-fixed chi with b_s = chi(u) + chi(v) - chi(u+v).

    chi is recovered degree by degree from the slot diagonal and the result
    is verified exactly; a nonzero residual (b_s is not a coboundary) raises
    FactorizationError with a witness monomial.
    """
    four_n = len(b_s.space)
    if four_n % 4:
        raise SpaceMismatchError("b_s must live on pair space")
    sig = sigma_space(four_n // 4)
    diag = merge_slots(b_s, sig)
    chi = Poly.zero(sig)
    for d in range(2, diag.total_degree() + 1):
        comp = diag.homogeneous_component(d)
        if comp.terms:
            chi = chi + comp.scale_fraction(Fraction(1, 2 - 2**d))
    residual = b_s - coboundary(chi)
    if not residual.is_zero:
        exps, coeff = residual.leading_term()
        raise FactorizationError(
            stage="chi_extract",
            message=(
                "symmetric part is not a coboundary; residual term "
                f"{Poly.monomial(b_s.space, exps, coeff)}"
            ),
            witness=(exps, coeff),
        )
    return chi


@dataclass(frozen=True)
class Factorization:
    """The structured form of an associative kernel exponent."""

    n: int
    chi: Poly
    m: Matrix
    rank: int
    darboux_basis: Matrix
    kernel_basis: list[Vector]
    pairings: list[scalars.Coefficient]
    uniform_pairing: bool

    @property
    def nondegenerate(self) -> bool:
        """True iff M has full rank, i.e. the algebra has a trivial center."""
        return not self.kernel_basis

    def rebuild(self) -> Poly:
        """The exponent reassembled from (chi, M); equals the input exactly."""
        return self.as_star_kernel().exponent()

    def as_star_kernel(self) -> StarKernel:
        return StarKernel(self.n, self.chi, self.m)


def factorize(raw: RawKernelExponent) -> Factorization:
    """Full analysis pipeline: cocycle check, slot split, chi recovery.

    Raises FactorizationError with the failing stage on invalid input; on
    success the rebuild invariant holds exactly.
    """
    violation = cocycle_check(raw)
    if violation is not None:
        raise FactorizationError(
            stage="cocycle_check",
            message=f"{violation.stage} failure at monomial {violation.monomial_str()}",
            witness=violation,
        )
    parts = extract_antisymmetric_form(raw)
    chi = chi_extract(parts.symmetric)
    fact = Factorization(
        n=raw.n,
        chi=chi,
        m=parts.m,
        rank=parts.rank,
        darboux_basis=parts.darboux_basis,
        kernel_basis=parts.kernel_basis,
        pairings=parts.pairings,
        uniform_pairing=parts.uniform_pairing,
    )
    if fact.rebuild() != raw.b:
        raise FactorizationError(  # pragma: no cover - guarded by the steps above
            stage="rebuild", message="reassembled exponent differs from the input"
        )
    return fact


def center_basis(raw: RawKernelExponent, max_degree: int) -> list[Poly]:
    """Monomials in the phase-space coordinates dual to Ker M, up to max_degree.

    These star-commute with every polynomial: their sigma-support lies in the
    kernel of the antisymmetric form, so every commutator term carries a
    vanishing factor.  For nondegenerate M only the constants remain.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    return dual_monomials(raw.n, factorize(raw).kernel_basis, max_degree)


# The most candidates one `dual_monomials` call may build; a larger request
# raises ValueError before anything is built.
CENTER_MONOMIAL_LIMIT = 10_000


def dual_monomials(n: int, kernel_basis: list[Vector], max_degree: int) -> list[Poly]:
    """1 and every product of up to max_degree linear forms dual to kernel_basis,
    whose vectors must hold 2n entries (else ValueError), each a Coefficient
    (else TypeError)."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    for vec in kernel_basis:
        if len(vec) != 2 * n:
            raise ValueError(f"kernel vector {vec!r} must have 2n = {2 * n} entries")
        if not all(isinstance(c, scalars.Coefficient) for c in vec):
            raise TypeError(f"kernel vector {vec!r} must hold Coefficient entries")
    variables = len(kernel_basis)
    count = math.comb(max_degree + variables, variables)
    if count > CENTER_MONOMIAL_LIMIT:
        raise ValueError(
            f"{count} monomials of degree at most {max_degree} in {variables} variables "
            f"exceed the centre enumeration limit ({CENTER_MONOMIAL_LIMIT})"
        )
    space = phase_space(n)
    units = [tuple(int(k == idx) for k in range(2 * n)) for idx in range(2 * n)]
    duals = [
        Poly(space, {unit: c for unit, c in zip(units, vec) if c}) for vec in kernel_basis
    ]
    out = [Poly.one(space)]
    for degree in range(1, max_degree + 1):
        for combo in combinations_with_replacement(duals, degree):
            out.append(math.prod(combo, start=Poly.one(space)))
    return out
