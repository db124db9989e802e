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
    merge_slots,
    on_slots,
    slot_degrees,
    slot_swap,
)


@dataclass(frozen=True)
class RawKernelExponent:
    """A candidate product-kernel exponent b over pair space, with b(0,0) = 0."""

    n: int
    b: Poly

    def __post_init__(self):
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


def _half(p: Poly) -> Poly:
    return p.scale_fraction(Fraction(1, 2))


def split_parts(b: Poly) -> tuple[Poly, Poly]:
    """(symmetric, antisymmetric) slot-swap parts of b."""
    swapped = slot_swap(b)
    return _half(b + swapped), _half(b - swapped)


def cocycle_defect(raw: RawKernelExponent) -> Poly:
    """b(v,w) - b(u+v,w) + b(u,v+w) - b(u,v) over triple space."""
    b, tri = raw.b, triple_space(raw.n)
    return (
        on_slots(b, tri, "v", "w")
        - on_slots(b, tri, "uv", "w")
        + on_slots(b, tri, "u", "vw")
        - on_slots(b, tri, "u", "v")
    )


def _nonzero_point(defect: Poly) -> tuple[tuple[int, ...], scalars.Coefficient]:
    """A small integer point where the defect does not vanish (seeded search)."""
    rng = random.Random(1729)
    width = len(defect.space)
    bound = max(defect.total_degree() + 2, 4)
    for _ in range(200):
        point = tuple(rng.randrange(1, bound) for _ in range(width))
        value = defect.evaluate([scalars.Coefficient.from_int(x) for x in point])
        if value:
            return point, value
    raise RuntimeError("failed to find a nonzero evaluation point")  # pragma: no cover


def cocycle_check(raw: RawKernelExponent) -> CocycleViolation | None:
    """None if b is a normalized 2-cocycle; otherwise a violation witness.

    The witness carries one nonzero monomial of the defect and, for cocycle
    failures, an integer point with the two unequal sides of the identity
    b(u,v) + b(u+v,w) = b(v,w) + b(u,v+w).
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
    defect = cocycle_defect(raw)
    if defect.is_zero:
        return None
    exps, coeff = defect.leading_term()
    point, _ = _nonzero_point(defect)
    values = [scalars.Coefficient.from_int(x) for x in point]
    tri = defect.space
    u_vals, v_vals, w_vals = values[:width], values[width : 2 * width], values[2 * width :]
    uv_vals = [a + c for a, c in zip(u_vals, v_vals)]
    vw_vals = [a + c for a, c in zip(v_vals, w_vals)]
    lhs = b.evaluate(u_vals + v_vals) + b.evaluate(uv_vals + w_vals)
    rhs = b.evaluate(v_vals + w_vals) + b.evaluate(u_vals + vw_vals)
    return CocycleViolation(
        stage="cocycle",
        monomial=exps,
        coefficient=coeff,
        space_names=tri.names,
        point=point,
        lhs=lhs,
        rhs=rhs,
    )


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
    return dual_monomials(raw.n, factorize(raw).kernel_basis, max_degree)


def dual_monomials(n: int, kernel_basis: list[Vector], max_degree: int) -> list[Poly]:
    """1 and every product of up to max_degree linear forms dual to kernel_basis."""
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
