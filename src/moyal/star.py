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
computed as two products: each kernel's compiled operator (`BiDiff`, one per
kernel in a bounded cache) memoises, per monomial pair (ef, eg), both the
product piece and the commutator piece (ef*eg - eg*ef) / (2*mu), each memo
holding at most `PAIR_MEMO_SIZE` pairs and cleared when full.  `star` and
`bracket` are then one walk over the terms of f and g that scales each
memoised piece by the two coefficients.

Slot layout: a kernel polynomial over pair space (u, v) or triple space
(u, v, w) stores its exponents as consecutive blocks, one per slot, each of
width 2n and index-aligned with z.  Its only readers are here: `on_slots`
moves a polynomial between slots (chi(u + v), b(u, v + w), the slot swap),
`merge_slots` sets the slots equal, `slot_degrees` gives a monomial's
degree in each slot, and `bilinear_form` reads the (1, 1) part as a matrix.
The other readers are the packed form of `poly.lifted_mul`/`poly.unlift`,
which keeps the blocks as consecutive bit fields of one int key, and the
Jacobi defect in lie.py, which sorts or rotates those fields to file each
product entry under the representative of its orbit of block permutations.

The ordering-change map `u_map` applies exp(chi(-i d/dz)) to a symbol.  It
is an exact isomorphism intertwining the kernel (chi, M) with (0, M), and is
inverted by -chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable

from . import scalars
from .errors import DegreeGuardError, DimensionMismatchError, SpaceMismatchError
from .linalg import Matrix
from .poly import (
    DiffOp,
    Poly,
    Space,
    get_degree_guard,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from .scalars import MU_POLY_ONE

Exponents = tuple[int, ...]


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


def coboundary(chi: Poly) -> Poly:
    """chi(sigma) + chi(sigma') - chi(sigma + sigma') over pair space."""
    pair = pair_space(len(chi.space) // 2)
    return on_slots(chi, pair, "u") + on_slots(chi, pair, "v") - on_slots(chi, pair, "uv")


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


def slot_swap(p: Poly) -> Poly:
    """Exchange the u and v blocks of a pair-space polynomial."""
    return on_slots(p, p.space, "v", "u")


def merge_slots(p: Poly, space: Space) -> Poly:
    """Set both slots of p equal: add its two blocks of len(space) exponents."""
    width = len(space)
    return p.map_exponents(
        lambda e: tuple(map(int.__add__, e[:width], e[width:])), space
    )


def on_slots(p: Poly, target: Space, *slots: str) -> Poly:
    """p(slot_1, ..., slot_k) over a pair or triple space: a(u, v + w) is
    on_slots(a, triple_space(n), "u", "vw").

    Each slot names the one or two target blocks whose sum it is.  Single
    blocks only reindex the terms; a power of a sum of two blocks is expanded
    binomially on the exponent tuples.
    """
    n, rem = divmod(len(p.space), 2 * len(slots))
    if rem or not n or target not in (pair_space(n), triple_space(n)):
        raise SpaceMismatchError(f"{len(slots)} slots of {p.space!r} do not map into {target!r}")
    width = 2 * n
    blocks = "uvw"[: len(target) // width]
    targets = [
        tuple(blocks.index(block) * width + i for block in slot)
        for slot in slots
        for i in range(width)
    ]
    images = []
    for exps, coeff in p.terms.items():
        base = [0] * len(target)
        sums = []
        for e, where in zip(exps, targets):
            if len(where) == 1:
                base[where[0]] += e
            elif e:
                sums.append((e, where))
        for split in product(*(range(e + 1) for e, _ in sums)):
            new = base[:]
            mult = 1
            for j, (e, (left, right)) in zip(split, sums):
                new[left] += j
                new[right] += e - j
                mult *= comb(e, j)
            images.append((new, coeff.scale_int(mult)))
    return Poly.from_terms(target, images)


# Distinct (f-monomial, g-monomial) pairs one product operator remembers.
PAIR_MEMO_SIZE = 4096


class BiDiff:
    """The bidifferential operator A(-i d_left, -i d_right) of a pair-space kernel A.

    The u-block of A differentiates the left factor and the v-block the right
    one: the operator acts on f (x) g, written over the same 4n slots, and the
    two slots are then merged back to phase space.  `apply` runs the operator
    once, as for a bracket kernel A; `apply_exp` runs its exponential, as for
    a product kernel exp(b).  `commutator` is (f*g - g*f) / (2 mu) for that
    product.  Two memos on the operator, each of at most `PAIR_MEMO_SIZE`
    monomial pairs and cleared when full, hold the exp piece and the
    commutator piece of each monomial pair (ef, eg).  Every entry point checks
    that both operands live on the operator's phase space and that their
    degrees fit the degree guard.  Operands with mu-denominators are run on
    their numerators and divided once per output term (see poly.py,
    Denominators).
    """

    __slots__ = ("space", "op", "_pairs", "_comms")

    def __init__(self, a: Poly):
        n, rem = divmod(len(a.space), 4)
        if rem or a.space != pair_space(n):
            raise SpaceMismatchError(f"{a.space!r} is not a pair space")
        self.space = phase_space(n)
        self.op = DiffOp.from_sigma_poly(a)
        self._pairs: dict[tuple[Exponents, Exponents], Poly] = {}
        self._comms: dict[tuple[Exponents, Exponents], Poly] = {}

    def apply(self, f: Poly, g: Poly) -> Poly:
        """A(-i d_left, -i d_right) applied once to f (x) g, slots merged."""
        self._check_operands(f, g)
        tensor = {}
        for ef, cf in f.terms.items():
            for eg, cg in g.terms.items():
                scale = cf * cg
                if scale.den is not MU_POLY_ONE:
                    (p, df), (q, dg) = f.split_denominator(), g.split_denominator()
                    return self.apply(p, q).over(df * dg)
                tensor[ef + eg] = scale
        applied = self.op.apply_once(Poly(self.op.poly.space, tensor))
        return merge_slots(applied, self.space)

    def apply_exp(self, f: Poly, g: Poly) -> Poly:
        """exp(A(-i d_left, -i d_right)) applied to f (x) g, slots merged."""
        return self._accumulate(f, g, self._exp_piece)

    def commutator(self, f: Poly, g: Poly) -> Poly:
        """(exp(A) f (x) g - exp(A) g (x) f) / (2 mu), slots merged."""
        return self._accumulate(f, g, self._commutator_piece)

    def _check_operands(self, f: Poly, g: Poly) -> None:
        """Both operands live on this phase space and fit the degree guard."""
        if (f.space, g.space) != (self.space, self.space):
            raise DimensionMismatchError(
                f"operands must live on phase space of dimension n={len(self.space) // 2}"
            )
        guard = get_degree_guard()
        if f.total_degree() + g.total_degree() > guard:
            raise DegreeGuardError(f"operand degrees exceed the guard ({guard})")

    def _exp_piece(self, ef: Exponents, eg: Exponents) -> Poly:
        pairs = self._pairs
        piece = pairs.get((ef, eg))
        if piece is None:
            if len(pairs) >= PAIR_MEMO_SIZE:
                pairs.clear()
            target = Poly.monomial(self.op.poly.space, ef + eg)
            piece = merge_slots(self.op.apply_exp(target), self.space)
            pairs[ef, eg] = piece
        return piece

    def _commutator_piece(self, ef: Exponents, eg: Exponents) -> Poly:
        comms = self._comms
        piece = comms.get((ef, eg))
        if piece is None:
            if len(comms) >= PAIR_MEMO_SIZE:
                comms.clear()
            forward, backward = self._exp_piece(ef, eg), self._exp_piece(eg, ef)
            piece = (forward - backward).scale(scalars.HALF_INV_MU)
            comms[ef, eg] = piece
        return piece

    def _accumulate(
        self, f: Poly, g: Poly, piece_of: Callable[[Exponents, Exponents], Poly]
    ) -> Poly:
        """Sum piece_of(ef, eg) * cf * cg over the terms of f and g."""
        self._check_operands(f, g)
        terms: dict[Exponents, scalars.Coefficient] = {}
        for ef, cf in f.terms.items():
            for eg, cg in g.terms.items():
                piece = piece_of(ef, eg).terms
                if not piece:
                    # A zero piece (a constant's commutator) must not trigger a split.
                    continue
                scale = cf * cg
                if scale.den is not MU_POLY_ONE:
                    (p, df), (q, dg) = f.split_denominator(), g.split_denominator()
                    return self._accumulate(p, q, piece_of).over(df * dg)
                for exps, coeff in piece.items():
                    coeff = coeff * scale
                    acc = terms.get(exps)
                    coeff = coeff if acc is None else acc + coeff
                    if coeff:
                        terms[exps] = coeff
                    else:
                        del terms[exps]
        return Poly(self.space, terms)


@lru_cache(maxsize=64)
def _star_op(kernel: StarKernel) -> BiDiff:
    return BiDiff(kernel.exponent())


def star(f: Poly, g: Poly, kernel: StarKernel) -> Poly:
    """The star product of two phase-space polynomials under the given kernel."""
    return _star_op(kernel).apply_exp(f, g)


def bracket(f: Poly, g: Poly, kernel: StarKernel) -> Poly:
    """(f*g - g*f) / (2*mu): the bracket induced by the star product.

    One walk over the monomial pairs of f and g, each read from the kernel
    operator's commutator memo (see `BiDiff`), which holds
    (ef*eg - eg*ef) / (2 mu) for at most `PAIR_MEMO_SIZE` pairs.
    The division happens in the scalar field; a kernel whose commutator does
    not carry a factor of mu simply produces 1/mu coefficients, and any pole
    surfaces later in `classical_limit`.
    """
    return _star_op(kernel).commutator(f, g)


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
    op = DiffOp.from_sigma_poly(Poly(f.space, dict(chi.terms)))
    return op.apply_exp(f)
