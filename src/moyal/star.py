"""Generalized star products and brackets on phase-space polynomials.

Conventions (fixed package-wide, pinned by the q*p fixture below):

  * phase space z = (q1..qn, p1..pn); sigma = (u1..u2n) is index-aligned
    with z under the pairing sigma.z = sum_i u_i z_i;
  * J is the canonical symplectic matrix [[0, I], [-I, 0]], and the wedge
    of two sigma slots is  sigma' ^ sigma = J_ij v_i u_j;
  * a product kernel is exp(b) with
        b(sigma, sigma') = chi(sigma) + chi(sigma') - chi(sigma + sigma')
                           + sigma'^T M sigma,
    chi a polynomial with chi(0) = 0 and M an antisymmetric matrix;
  * the Moyal kernel is chi = 0, M = mu*J; with it  q1 * p1 = q1*p1 + mu,
    matching the operator normalisation [q, p] = 2*mu = i*hbar.

On polynomial symbols the product is the terminating bidifferential series
obtained by substituting sigma -> -i d/dz acting on the left factor and
sigma' -> -i d/dz acting on the right factor in b, exponentiating, and
merging the two slots pointwise.  Plane waves e^{i sigma.z} are eigenvectors
of -i d/dz, so this realizes multiplication of Fourier transforms by exp(b)
exactly, term by term.

The bracket divides the commutator by 2*mu in the scalar field; division is
formal, and poles only surface when the classical limit is taken.  It is not
computed as two products: each kernel keeps its compiled operator
(`StarKernel.operator`, a `BiDiff` freed with the kernel), which memoises,
per monomial pair (ef, eg), both the product piece and the commutator piece
(ef*eg - eg*ef) / (2*mu), each a Poly, in two LRU tables of at most
`PAIR_MEMO_SIZE` pairs.  A product piece is exp(b) on the monomial
ef (x) eg, slots merged; the operator builds it from the image of a shorter
monomial, which other pairs share, and keeps those images too
(`poly.DiffOp.monomial_exp`).  `star` and `bracket` are then one walk over
the terms of f and g that scales each memoised piece by the two
coefficients (`poly.bilinear`): a unit scale multiplies no term, and for
two one-term operands whose coefficients multiply to ONE a memo hit returns
the memoised Poly itself, degree and hash kept, at the cost of one lookup.

Slot layout: a kernel polynomial over pair space (u, v) or triple space
(u, v, w) stores its exponents as consecutive blocks, one per slot, each of
width 2n and index-aligned with z.  Its readers here: `slot_sum` (the
coboundary, the cocycle defect) unlifts the one lift of signed slot maps,
`poly.lift_slots`, which compiles each tuple of maps once.  `swap_slots`,
the swap p(v, u) of the (anti)symmetrisations, is a bijection on exponent
tuples, so it only relabels the terms.  `merge_slots` sets the slots equal,
`slot_degrees` gives a monomial's degree in each slot, and `bilinear_form`
reads the (1, 1) part as a matrix.  Its readers elsewhere slice the
exponent tuples themselves:
  * `lie._defect_blocks` compares the u and v blocks of A to halve it; its
    product is folded by block permutation in `poly.block_product`;
  * `lie._fit_structured` moves the v block of a quotient term into chi;
  * `cocycle.cocycle_check` cuts its evaluation point into u, v and w.

The ordering-change map `u_map` applies exp(chi(-i d/dz)) to a symbol.  It
is an exact isomorphism intertwining the kernel (chi, M) with (0, M), and is
inverted by -chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from . import scalars
from .errors import DimensionMismatchError, SpaceMismatchError
from .linalg import Matrix
from .poly import (
    DiffOp,
    Pieces,
    Poly,
    Space,
    bilinear,
    check_degree,
    check_dimension,
    lift_slots,
    pair_space,
    phase_space,
    sigma_space,
)

Exponents = tuple[int, ...]
Terms = dict[Exponents, scalars.Coefficient]


def phase_dimension(space: Space) -> int:
    """The n with space == phase_space(n), or raise."""
    n, rem = divmod(len(space), 2)
    if rem or space != phase_space(n):
        raise SpaceMismatchError(f"{space!r} is not a phase space")
    return n


@dataclass(frozen=True)
class StarKernel:
    """An exp-of-polynomial product kernel (chi, M) on 2n-dimensional sigma space.

    chi must vanish at 0 (the kernel is gauge-normalized to B(0, 0) = 1) and
    M must be antisymmetric.  Every such kernel has an exponent that is an
    exact additive 2-cocycle, so its star product is associative.
    """

    n: int
    chi: Poly
    m: Matrix

    def __post_init__(self):
        check_dimension(self.n)
        if self.chi.space != sigma_space(self.n):
            raise SpaceMismatchError("chi must live on sigma space u1..u2n")
        if self.chi.constant_term():
            raise ValueError("chi must vanish at sigma = 0")
        if self.m.nrows != 2 * self.n or self.m.ncols != 2 * self.n:
            raise DimensionMismatchError("M must be 2n x 2n")
        if not self.m.is_antisymmetric:
            raise ValueError("M must be antisymmetric")

    @staticmethod
    def moyal(n: int) -> "StarKernel":
        """chi = 0, M = mu*J: the symmetric-ordering kernel."""
        return StarKernel(
            n, Poly.zero(sigma_space(n)), Matrix.canonical_symplectic(n, scalars.MU)
        )

    @staticmethod
    def standard(n: int) -> "StarKernel":
        """chi = mu * sum_i u_i u_{n+i}, M = mu*J."""
        sp = sigma_space(n)
        chi = Poly.zero(sp)
        for i in range(n):
            exps = [0] * (2 * n)
            exps[i] = 1
            exps[n + i] = 1
            chi = chi + Poly.monomial(sp, tuple(exps), scalars.MU)
        return StarKernel(n, chi, Matrix.canonical_symplectic(n, scalars.MU))

    def exponent(self) -> Poly:
        """b(sigma, sigma') over pair space: coboundary of chi plus sigma'^T M sigma."""
        return coboundary(self.chi) + bilinear_pair_poly(self.m, self.n)

    @cached_property
    def operator(self) -> "BiDiff":
        """The compiled operator exp(b) of `star` and `bracket`, kept by this kernel."""
        return BiDiff(self.exponent())


# The slot maps of the coboundary chi(u) + chi(v) - chi(u + v).
COBOUNDARY_MAPS = ((1, "u"), (1, "v"), (-1, "uv"))


def coboundary(chi: Poly) -> Poly:
    """chi(sigma) + chi(sigma') - chi(sigma + sigma') over pair space."""
    return slot_sum(chi, pair_space(len(chi.space) // 2), *COBOUNDARY_MAPS)


def bilinear_pair_poly(m: Matrix, n: int) -> Poly:
    """sigma'^T M sigma = sum_ij M_ij v_i u_j as a pair-space polynomial."""
    pair = pair_space(n)
    terms = {}
    two_n = 2 * n
    for i in range(two_n):
        for j in range(two_n):
            c = m[i, j]
            if c:
                exps = [0] * (2 * two_n)
                exps[j] += 1  # u_j
                exps[two_n + i] += 1  # v_i
                terms[tuple(exps)] = c
    return Poly(pair, terms)


def bilinear_form(p: Poly, n: int) -> Matrix:
    """The M with sigma'^T M sigma the (1, 1) part of p; inverts `bilinear_pair_poly`."""
    width = 2 * n
    rows = [[scalars.ZERO] * width for _ in range(width)]
    for exps, coeff in p.terms.items():
        if slot_degrees(exps, width) == (1, 1):
            rows[exps.index(1, width) - width][exps.index(1)] = coeff
    return Matrix(rows)


def slot_degrees(exps: Exponents, width: int) -> tuple[int, ...]:
    """The degree of a monomial in each of its slots of `width` exponents."""
    return tuple(sum(exps[k : k + width]) for k in range(0, len(exps), width))


def merge_slots(p: Poly, space: Space) -> Poly:
    """Set both slots of p equal: add its two blocks of len(space) exponents.

    The merged exponents are built here from p's own, so the terms are summed
    into one dict without the per-item checks of `Poly.from_terms`.
    """
    width = len(space)
    terms: Terms = {}
    for e, c in p.terms.items():
        exps = tuple(map(int.__add__, e[:width], e[width:]))
        acc = terms.get(exps)
        c = c if acc is None else acc + c
        if c:
            terms[exps] = c
        else:
            del terms[exps]
    return Poly(space, terms)


def swap_slots(p: Poly) -> Poly:
    """p(v, u) over pair space: each exponent tuple with its two blocks exchanged."""
    width, rem = divmod(len(p.space), 2)
    if rem or p.space != pair_space(width // 2):
        raise SpaceMismatchError(f"{p.space!r} is not a pair space")
    return Poly(p.space, {e[width:] + e[:width]: c for e, c in p.terms.items()})


def slot_sum(p: Poly, target: Space, *maps: tuple) -> Poly:
    """The signed sum of the images of p under slot maps, over a pair or triple space.

    Each map is (sign, slot_1, ..., slot_k), and its image is sign times
    p(slot_1, ..., slot_k): b(v, w) - b(u + v, w) is
    slot_sum(b, triple_space(n), (1, "v", "w"), (-1, "uv", "w")).  The sum
    runs in packed form on the numerators of p (`poly.lift_slots`) and is
    divided by their denominator once, at the end.
    """
    numerators, den = p.split_denominator()
    return lift_slots(numerators, target, maps).over(den).unlift()


# Distinct (f-monomial, g-monomial) pairs one product operator remembers.
PAIR_MEMO_SIZE = 4096


class BiDiff:
    """The bidifferential operator A(-i d_left, -i d_right) of a pair-space kernel A.

    The u-block of A differentiates the left factor and the v-block the right
    one: the operator acts on f (x) g, written over the same 4n slots, and the
    two slots are then merged back to phase space.  `apply` runs the operator
    once, as for a bracket kernel A; `apply_exp` runs its exponential, as for
    a product kernel exp(b).  `commutator` is (f*g - g*f) / (2 mu) for that
    product.  All three are one walk, `poly.bilinear`, over the monomial
    pairs (ef, eg) of f and g, summing each pair's piece (a Poly over the
    phase space) scaled by the two coefficients; they differ only in the
    piece.  A unit scale multiplies no term, and a pair of one-term operands
    whose piece is empty or whose scale is ONE returns the piece itself, so
    a memo hit builds no Poly and the memos' Polys are shared with results.
    The exp and commutator pieces are memoised, each memo an LRU table of
    at most `PAIR_MEMO_SIZE` pairs owned by this operator, because products
    and brackets meet the same pairs again and again.  The one-step pieces
    are not: a caller that applies a bracket kernel once rarely meets a pair
    twice, so a memo would only add inserts.  Every entry point checks that
    both operands live on the operator's phase space and that their degrees
    fit the degree guard; the walk alone decides when operands with
    mu-denominators run on their numerators (see poly.py, Denominators).
    An exp piece is `DiffOp.monomial_exp` of the coefficient-1 monomial
    ef + eg, slots merged: the operator builds it from the image of its
    prefix and keeps the prefix images, which the pieces of other pairs
    share.  It skips `DiffOp.apply_exp`'s target check, split and division:
    the monomial lies on the operator's space by construction, its degree
    is the one `_check` has checked against the guard, and with
    coefficient 1 it has nothing to split or divide.  `monomial_exp` still
    rejects an operator with a constant term.
    """

    __slots__ = ("space", "op", "_exp_piece", "_commutator_piece")

    def __init__(self, a: Poly):
        n, rem = divmod(len(a.space), 4)
        if rem or a.space != pair_space(n):
            raise SpaceMismatchError(f"{a.space!r} is not a pair space")
        self.space = phase_space(n)
        self.op = DiffOp.from_sigma_poly(a)
        # Module functions under partial, not bound methods: the memos hold no
        # reference back to this operator, so it is freed with its last user.
        memo = lru_cache(maxsize=PAIR_MEMO_SIZE)
        self._exp_piece = memo(partial(_exp_piece, self.op, self.space))
        self._commutator_piece = memo(partial(_commutator_piece, self._exp_piece))

    def apply(self, f: Poly, g: Poly) -> Poly:
        """A(-i d_left, -i d_right) applied once to f (x) g, slots merged."""
        self._check(f, g)
        return bilinear(f, g, self.space, self._once_piece)

    def apply_exp(self, f: Poly, g: Poly) -> Poly:
        """exp(A(-i d_left, -i d_right)) applied to f (x) g, slots merged."""
        self._check(f, g)
        return bilinear(f, g, self.space, self._exp_piece)

    def commutator(self, f: Poly, g: Poly) -> Poly:
        """(exp(A) f (x) g - exp(A) g (x) f) / (2 mu), slots merged."""
        self._check(f, g)
        return bilinear(f, g, self.space, self._commutator_piece)

    def _once_piece(self, ef: Exponents, eg: Exponents) -> Poly:
        target = Poly.monomial(self.op.poly.space, ef + eg)
        return merge_slots(self.op.apply_once(target), self.space)

    def _check(self, f: Poly, g: Poly) -> None:
        """Both operands on the operator's phase space, their degrees within the guard."""
        space = self.space
        if not (f.space is space and g.space is space) and (f.space, g.space) != (space, space):
            raise DimensionMismatchError(
                f"operands must live on phase space of dimension n={len(self.space) // 2}"
            )
        check_degree(f.total_degree() + g.total_degree(), "operand")


def _exp_piece(op: DiffOp, space: Space, ef: Exponents, eg: Exponents) -> Poly:
    return merge_slots(Poly(op.poly.space, op.monomial_exp(ef + eg)), space)


def _commutator_piece(exp_piece: Pieces, ef: Exponents, eg: Exponents) -> Poly:
    return (exp_piece(ef, eg) - exp_piece(eg, ef)).scale(scalars.HALF_INV_MU)


def star(f: Poly, g: Poly, kernel: StarKernel) -> Poly:
    """The star product of two phase-space polynomials under the given kernel."""
    return kernel.operator.apply_exp(f, g)


def bracket(f: Poly, g: Poly, kernel: StarKernel) -> Poly:
    """(f*g - g*f) / (2*mu): the bracket induced by the star product.

    One walk over the monomial pairs of f and g, each read from the
    commutator memo of `kernel.operator` (see `BiDiff`), an LRU table of
    (ef*eg - eg*ef) / (2 mu) for at most `PAIR_MEMO_SIZE` pairs.
    The division happens in the scalar field; a kernel whose commutator does
    not carry a factor of mu simply produces 1/mu coefficients, and any pole
    surfaces later in `classical_limit`.
    """
    return kernel.operator.commutator(f, g)


def poisson(f: Poly, g: Poly) -> Poly:
    """The canonical Poisson bracket sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i)."""
    if f.space != g.space:
        raise SpaceMismatchError("operands live on different spaces")
    n = phase_dimension(f.space)
    out = Poly.zero(f.space)
    for i in range(n):
        qi, pi = i, n + i
        out = out + f.differentiate(qi) * g.differentiate(pi)
        out = out - f.differentiate(pi) * g.differentiate(qi)
    return out


def classical_limit(f: Poly) -> Poly:
    """Substitute mu = 0 in all coefficients; raises PoleAtMuZeroError on a pole."""
    return f.mu_zero()


def u_map(f: Poly, chi: Poly) -> Poly:
    """Apply the ordering-change map exp(chi(-i d/dz)) to a phase-space polynomial.

    chi lives on sigma space (index-aligned with z) and must vanish at 0.
    The map intertwines star products: applied to a product taken with kernel
    (chi, M) it yields the product of the mapped factors taken with (0, M),
    and u_map(., -chi) is its exact inverse.
    """
    if chi.constant_term():
        raise ValueError("chi must have zero constant term")
    if len(chi.space) != len(f.space):
        raise DimensionMismatchError("chi arity does not match the phase space")
    op = DiffOp.from_sigma_poly(chi.in_space(f.space))
    return op.apply_exp(f)
