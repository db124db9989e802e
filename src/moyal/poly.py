"""Sparse multivariate polynomials over Q(i)(mu), plus differential operators.

A polynomial is a mapping from exponent tuples to nonzero Coefficient values
over a fixed, named variable space.  All values are immutable after
construction and every operation is a pure function, so the whole layer is
safe to use concurrently.

The spaces used elsewhere in the package:

  * phase space, dimension n: variables q1..qn, p1..pn (z-coordinates);
  * sigma space: u1..u2n, the Fourier-dual coordinates, index-aligned with z;
  * pair space: u1..u2n, v1..v2n, the two kernel slots;
  * triple space: u, v, w blocks, used for cocycle and Jacobi defects.

Differential operators are polynomials whose exponents are read as partial
derivative multi-orders against an index-aligned target space.  The
substitution sigma -> -i d/dz turns a sigma-space polynomial into such an
operator (each plane wave e^{i sigma.z} is an eigenvector of -i d/dz with
eigenvalue sigma).  Exponentials of such operators terminate exactly on
polynomials because every generator term of positive degree strictly lowers
the target's total degree.  A polynomial target, which meets its operator
once (`u_map`), runs the series sum_k D^k / k!.  A product operator meets
many coefficient-1 monomials that share prefixes, so it builds exp(D) of
each from its prefix's image and keeps the images (`DiffOp.monomial_exp`).
The Weyl transitions of operators.py are not `DiffOp`s: their exponential
is a closed-form contraction, read from that module's word table.

Denominators.  Adding two coefficients over different denominators runs
Euclid over Q(i)[mu], so the accumulation loops do not add rational
coefficients.  `split_denominator` turns p into (P, D): D is a monic common
denominator of the coefficients and P = D*p has coefficients polynomial in
mu.  `P.over(D)` divides back.  When every coefficient of P is polynomial in
mu (and D is monic) the quotient is deferred: it holds (P, D) and builds its
canonical terms, one `Coefficient.make` per term, only when they are first
read.  Splitting a deferred value returns its (P, D) as they are, so a chain
of products (`u_map(star(f, g))`, the Weyl route through `nc_mul`) divides
each output coefficient once, at the end, and the stages in between run no
gcd.  Otherwise `over` divides every term at once, by the term's own
denominator times D, since a kernel piece may bring denominators of its own.
The bilinear products (`Poly.__mul__`, `star.BiDiff` and
`operators.nc_mul`), the one-step `DiffOp` apply and `Poly.differentiate`
are one walk, `bilinear`, which differs per caller only in the terms it gives
each pair.  It splits both operands up front when one of them is deferred;
ordinary operands are split only at the first pair whose coefficient product
has a denominator, after which the walk runs on P and Q and returns
`.over(Dp*Dq)`.  Operands without denominators pay one identity test per
pair: the usual operand is a monomial with no denominator, and splitting both
operands up front would cost about a fifth of the `products` benchmark.  The
usual call is one such pair, and its piece is often memoised (`star.BiDiff`),
so two operands of one term each take the piece whole: a scale cf * cg that
is ONE returns the piece itself, a memo's Poly or a Poly on a table's dict
(pieces are shared, so no code writes into a `terms` dict), one polynomial
in mu scales it in one comprehension, and one with a mu-denominator splits
as above.  In the walk over many pairs a unit scale multiplies no term.  Only
`DiffOp.apply_exp` splits on entry: its series runs on the target's
numerators and divides once.  Values, `==`, `hash` and `str` do not depend
on whether the division has happened yet.

A configurable total-degree guard (default 64) makes runaway computations
fail fast instead of exhausting memory.  `degree_guard(bound)` sets it for
one `with` block and `check_degree` enforces it.  The bound is a context
variable, so a bound set in one thread does not leak into another.

Packed form.  The Jacobi and cocycle stages and the dressing of the Theorem 2
fit run on exact integers, in one type, `Lifted`: one int key per (monomial,
power of i) and one int value per key, over an int scale and a `MuPoly`
denominator.  A key holds, from the top, the total degree, the exponents in
order and a 2-bit field for the power of i, so a Gaussian coefficient is two
entries.  The exponent fields are as wide as the degree guard, so monomials
multiply by adding keys and no field carries; keys order as the (degree,
exponents) of `Poly.leading_term` do.  The mu-powers live in the value
(Kronecker substitution): sum_k d_k 2^(B*k) with signed digits d_k, the mu^k
part, and no digit carries while every |d_k| is below 2^(B-1).
`lift_slots`, the one lift, builds a form from the images of a polynomial
under slot maps; a caller that multiplies or folds forms chooses B from a
bound on the digits of its result, and passes the scale and norm
(`lift_scale`) it read B from, so each lift reads them once.  A lift pays
only for its terms: its slot maps are compiled straight to key units once
per (source space, target space, maps, exponent-field bits) in the table
`_lift_plan`, and the binomial images of a term under a map that sends
variables to sums are kept per (the map's steps, the term's exponents) in
`_binomial_row`; both are bounded `lru_cache`s of tuples, shared by every
thread.  A form holds no zero entry: the producers whose entries can cancel
drop them.
`block_product` is the one product of packed forms: it multiplies forms
split by degree one output degree at a time and, over a triple space, can
file each pair's product by block permutation as it adds it (the
alternating or cyclic fold of the Jacobi defect).  Each block it is asked
for is built whole.  `block_lead` reads the lead of one folded block
without building it: it takes the left entries best-first, by a bound on
the keys their pairs can reach, as heap multiplication takes its terms
(S. C. Johnson, 1974; M. Monagan and R. Pearce, CASC 2007), and stops at
the first nonzero key no unread entry can reach.  `product_blocks` keeps
the blocks of a product up to a degree, `exp_blocks` sums a truncated
exponential from them by Horner's rule, and `unlift_blocks` merges and
decodes a split form.  Other modules use a form only through these
functions and its methods (the split by degree, the lead, the degrees, the
mu = 0 test and `unlift`), so the bit layout, and which block a slot
letter names, are known to this module alone.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Iterator

from . import scalars
from .errors import (
    DegreeGuardError,
    NonterminatingSeriesError,
    PoleAtMuZeroError,
    SpaceMismatchError,
)
from .scalars import MU_POLY_ONE, Coefficient, MuPoly

Exponents = tuple[int, ...]

# Set only inside a `degree_guard` block and reset when it exits, so a bound
# never outlives its block, and a new thread starts from the default.
_degree_guard: ContextVar[int] = ContextVar("moyal_degree_guard", default=64)


def check_degree(degree: int, what: str) -> None:
    """Raise DegreeGuardError when a `what` degree exceeds the current guard."""
    guard = _degree_guard.get()
    if degree > guard:
        raise DegreeGuardError(
            f"{what} degree would exceed the guard ({guard}); "
            "raise it with degree_guard or MOYAL_MAX_DEGREE"
        )


@contextmanager
def degree_guard(bound: int) -> Iterator[None]:
    """Use `bound` as the total-degree bound inside the block, then restore it."""
    if bound < 1:
        raise ValueError("degree guard must be positive")
    token = _degree_guard.set(bound)
    try:
        yield
    finally:
        _degree_guard.reset(token)


class Space:
    """An immutable, ordered list of variable names."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        self.index = {name: k for k, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        if not isinstance(other, Space):
            return NotImplemented
        return self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Space({', '.join(self.names)})"


def check_dimension(n: int) -> None:
    """Raise ValueError unless the dimension n is an int (not a bool) of at least 1."""
    if type(n) is not int or n < 1:
        raise ValueError(f"dimension n must be an int of at least 1, got {n!r}")


@lru_cache(maxsize=64)
def phase_space(n: int) -> Space:
    """z = (q1..qn, p1..pn)."""
    return Space([f"q{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, n + 1)])


@lru_cache(maxsize=64)
def sigma_space(n: int) -> Space:
    """One sigma slot: u1..u2n, index-aligned with phase space."""
    return Space([f"u{i}" for i in range(1, 2 * n + 1)])


@lru_cache(maxsize=64)
def pair_space(n: int) -> Space:
    """Two sigma slots u, v — the domain of product/bracket kernels."""
    return Space(
        [f"u{i}" for i in range(1, 2 * n + 1)] + [f"v{i}" for i in range(1, 2 * n + 1)]
    )


@lru_cache(maxsize=64)
def triple_space(n: int) -> Space:
    """Three sigma slots u, v, w — the domain of cocycle and Jacobi defects."""
    return Space(
        [f"u{i}" for i in range(1, 2 * n + 1)]
        + [f"v{i}" for i in range(1, 2 * n + 1)]
        + [f"w{i}" for i in range(1, 2 * n + 1)]
    )


def _graded_key(exps: Exponents):
    # Terms are listed highest first in this order: degree, then exponents.
    return (sum(exps), exps)


class Poly:
    """A sparse polynomial: {exponent tuple: nonzero Coefficient} over a Space.

    The hash and the total degree are computed on first use and kept
    (`_hash`, `_degree`): the terms never change after construction, and a
    product reads its operands' degrees on every call.  A value returned by
    `over` may be deferred (`is_deferred`): it fills its `terms` on first
    read and keeps them the same way.  The fill is per object and idempotent,
    and two threads reading at once at worst both build the same dict, so a
    deferred value is as safe to share as any other.
    """

    __slots__ = ("space", "terms", "_hash", "_degree")
    is_deferred = False

    def __init__(self, space: Space, terms: dict[Exponents, Coefficient]):
        # Trusted constructor: `terms` must already be clean (no zeros).
        self.space = space
        self.terms = terms
        self._hash = None
        self._degree = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, space: Space, items) -> "Poly":
        terms: dict[Exponents, Coefficient] = {}
        width = len(space)
        for exps, coeff in items:
            exps = _check_term(exps, coeff, width)
            acc = terms.get(exps)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                terms[exps] = coeff
            else:
                terms.pop(exps, None)
        return cls(space, terms)

    @classmethod
    def zero(cls, space: Space) -> "Poly":
        return cls(space, {})

    @classmethod
    def constant(cls, space: Space, coeff: Coefficient) -> "Poly":
        exps = _check_term((0,) * len(space), coeff, len(space))
        if not coeff:
            return cls(space, {})
        return cls(space, {exps: coeff})

    @classmethod
    def one(cls, space: Space) -> "Poly":
        return cls.constant(space, scalars.ONE)

    @classmethod
    def variable(cls, space: Space, name: str) -> "Poly":
        idx = space.index.get(name)
        if idx is None:
            raise SpaceMismatchError(f"unknown variable {name!r} in {space!r}")
        exps = [0] * len(space)
        exps[idx] = 1
        return cls(space, {tuple(exps): scalars.ONE})

    @classmethod
    def monomial(cls, space: Space, exps: Exponents, coeff: Coefficient = scalars.ONE) -> "Poly":
        exps = _check_term(exps, coeff, len(space))
        if not coeff:
            return cls(space, {})
        return cls(space, {exps: coeff})

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.space, frozenset(self.terms.items())))
            self._hash = h
        return h

    def total_degree(self) -> int:
        """Maximum term degree; the zero polynomial has degree -1."""
        degree = self._degree
        if degree is None:
            degree = self._degree = max(map(sum, self.terms)) if self.terms else -1
        return degree

    def constant_term(self) -> Coefficient:
        return self.terms.get((0,) * len(self.space), scalars.ZERO)

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        return sorted(self.terms.items(), key=lambda kv: _graded_key(kv[0]), reverse=True)

    def leading_term(self) -> tuple[Exponents, Coefficient]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=_graded_key)
        return exps, self.terms[exps]

    # -- ring operations ---------------------------------------------------

    def _check_space(self, other: "Poly"):
        if self.space != other.space:
            raise SpaceMismatchError(
                f"mismatched variable spaces: {self.space!r} vs {other.space!r}"
            )

    def __add__(self, other: "Poly") -> "Poly":
        self._check_space(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                terms[exps] = coeff
            else:
                del terms[exps]
        return Poly(self.space, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        # As __add__, each term of other subtracted where it lands: -other is never built.
        self._check_space(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            coeff = -coeff if acc is None else acc - coeff
            if coeff:
                terms[exps] = coeff
            else:
                del terms[exps]
        return Poly(self.space, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.space, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_space(other)
        if not self or not other:
            return Poly(self.space, {})
        check_degree(self.total_degree() + other.total_degree(), "product")
        return bilinear(self, other, self.space, _product_piece)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        mu_degree = max((max(c.num.degree, c.den.degree) for c in self.terms.values()), default=0)
        check_degree(k * max(mu_degree, self.total_degree()), "power")
        # p**k has c**k at the lex-largest monomial of p: refuse what str could
        # not print (a limit of 0 is no limit).
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and k > 1 and self.terms and self.terms[max(self.terms)].power_digits(k) > limit + 1:
            raise ValueError(f"power would exceed the limit ({limit} digits) for integer string conversion")
        return scalars.binary_power(self, k, Poly.one(self.space))

    def split_denominator(self) -> tuple["Poly", MuPoly]:
        """(P, D) with D a monic common denominator of the coefficients and P = D * self.

        The coefficients of P are polynomial in mu.  D is the lcm of the
        coefficient denominators unless self is deferred: then (P, D) is the
        pair it was built from, returned without a gcd.  Without denominators
        this is (self, MU_POLY_ONE) and nothing is built.
        """
        den = scalars.common_denominator(self.terms.values())
        if den is MU_POLY_ONE:
            return self, den
        return Poly(self.space, {e: c.cleared(den) for e, c in self.terms.items()}), den

    def over(self, den: MuPoly) -> "Poly":
        """self / den for a nonzero polynomial den.

        When every coefficient is polynomial in mu and den is monic, the
        quotient is deferred: the division happens when its terms are first
        read.  Otherwise every term is divided now, one `Coefficient.make`
        each.  A zero den raises ZeroDivisionError here, either way.
        """
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den.is_one or not self.terms:
            return self
        if den.monic() is den and all(c.den is MU_POLY_ONE for c in self.terms.values()):
            return _Deferred(self, den)
        return Poly(self.space, {e: c.over(den) for e, c in self.terms.items()})

    def in_space(self, space: Space) -> "Poly":
        """The same terms over another space of the same width."""
        if len(space) != len(self.space):
            raise SpaceMismatchError(f"{self.space!r} and {space!r} differ in width")
        return Poly(space, self.terms)

    def scale(self, coeff: Coefficient) -> "Poly":
        if not coeff:
            return Poly(self.space, {})
        return Poly(self.space, {e: c * coeff for e, c in self.terms.items()})

    def scale_fraction(self, q: Fraction) -> "Poly":
        if not q:
            return Poly(self.space, {})
        return Poly(self.space, {e: c.scale_fraction(q) for e, c in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def differentiate(self, var: str | int, order: int = 1) -> "Poly":
        """Exact partial derivative of the given order with respect to one variable."""
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        idx = self.space.index.get(var) if isinstance(var, str) else var
        if idx is None or not 0 <= idx < len(self.space):
            raise SpaceMismatchError(f"unknown variable {var!r} in {self.space!r}")
        orders = [0] * len(self.space)
        orders[idx] = order
        return bilinear(Poly(self.space, {tuple(orders): scalars.ONE}), self, self.space, _derivative_piece)

    # -- structure ---------------------------------------------------------

    def homogeneous_component(self, degree: int) -> "Poly":
        return Poly(
            self.space, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def truncate_degree(self, max_degree: int) -> "Poly":
        return Poly(
            self.space, {e: c for e, c in self.terms.items() if sum(e) <= max_degree}
        )

    def mu_zero(self) -> "Poly":
        """Substitute mu = 0 in every coefficient; raises at a pole."""
        terms: dict[Exponents, Coefficient] = {}
        for exps, coeff in self.terms.items():
            try:
                c = coeff.mu_zero()
            except PoleAtMuZeroError:
                raise PoleAtMuZeroError(
                    f"pole at mu = 0 in the term {format_term(self.space, exps, coeff)}",
                    term=format_term(self.space, exps, coeff),
                ) from None
            if c:
                terms[exps] = c
        return Poly(self.space, terms)

    def mu_components(self) -> dict[int, "Poly"]:
        """Split by mu-power; every coefficient must be polynomial in mu.

        Each distinct coefficient is split once and its parts are shared.
        """
        splits: dict[Coefficient, dict[int, Coefficient]] = {}
        buckets: dict[int, dict[Exponents, Coefficient]] = {}
        for exps, coeff in self.terms.items():
            split = splits.get(coeff)
            if split is None:
                split = splits[coeff] = coeff.mu_components()
            for k, c in split.items():
                buckets.setdefault(k, {})[exps] = c
        return {k: Poly(self.space, terms) for k, terms in sorted(buckets.items())}

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly[{', '.join(self.space.names)}]({self})"


# The slot that a deferred value fills on first read; its property shadows it.
_TERMS = Poly.terms


class _Deferred(Poly):
    """P / D, kept as the pair until the terms are first read.

    P is an ordinary Poly whose coefficients are polynomial in mu, and D is
    monic.  Degree, truth, the constant term and further division are
    answered from P; everything else reads `terms`.
    """

    __slots__ = ("_numerator", "_denominator")
    is_deferred = True

    def __init__(self, numerator: Poly, den: MuPoly):
        self.space = numerator.space
        self._hash = None
        self._numerator = numerator
        self._denominator = den

    @property
    def terms(self) -> dict[Exponents, Coefficient]:
        try:
            return _TERMS.__get__(self)
        except AttributeError:
            den = self._denominator
            terms = {e: c.over(den) for e, c in self._numerator.terms.items()}
            _TERMS.__set__(self, terms)
            return terms

    def __bool__(self):
        return bool(self._numerator)

    def __reduce__(self):
        # Copies and pickles are ordinary: a slot shadowed by a property cannot be restored.
        return Poly, (self.space, self.terms)

    def total_degree(self) -> int:
        return self._numerator.total_degree()

    def constant_term(self) -> Coefficient:
        return self._numerator.constant_term().over(self._denominator)

    def split_denominator(self) -> tuple[Poly, MuPoly]:
        return self._numerator, self._denominator

    def over(self, den: MuPoly) -> Poly:
        return self._numerator.over(self._denominator * den)

    def in_space(self, space: Space) -> Poly:
        return _Deferred(self._numerator.in_space(space), self._denominator)


# A pair's piece: an operator memo's Poly over the walk's space, or a shared table's dict.
Pieces = Callable[[Exponents, Exponents], "Poly | dict[Exponents, Coefficient]"]

# The piece of a pair that contributes nothing; shared, and never written.
_NO_TERMS: dict[Exponents, Coefficient] = {}


def bilinear(f: Poly, g: Poly, space: Space, pieces: Pieces) -> Poly:
    """The sum of cf * cg * pieces(ef, eg) over the term pairs of f and g, over `space`.

    `pieces(ef, eg)` gives the terms of the pair (ef, eg) (see `Pieces`); an
    empty piece skips the pair before cf * cg is formed.  This is the one
    walk of the bilinear products and the one place that applies the
    denominator rule (see Denominators above): when f or g is deferred both
    are split first, and otherwise they are split at the first pair whose
    cf * cg has a mu-denominator.

    A piece is shared and never written, so a pair of one-term operands
    whose piece is empty or whose cf * cg is ONE returns the piece itself (a
    Poly whole, so a memo hit costs one lookup and builds nothing; a dict as
    a new Poly's terms), and one whose cf * cg is polynomial in mu returns
    it scaled in one comprehension.  A unit scale multiplies no term, and a
    key met for the first time is stored without a truth test: a product of
    nonzero field elements is nonzero, and only a sum can cancel.
    """
    if f.is_deferred or g.is_deferred:
        return _on_numerators(f, g, space, pieces)
    one = scalars.ONE
    if len(f.terms) == 1 == len(g.terms):
        ((ef, cf),), ((eg, cg),) = f.terms.items(), g.terms.items()
        piece = pieces(ef, eg)
        items = piece if type(piece) is dict else piece.terms
        scale = cf * cg if items else one
        if scale is one:
            return Poly(space, piece) if items is piece else piece
        if scale.den is not MU_POLY_ONE:
            return _on_numerators(f, g, space, pieces)
        return Poly(space, {exps: scale if coeff is one else coeff * scale for exps, coeff in items.items()})
    terms: dict[Exponents, Coefficient] = {}
    right = g.terms.items()
    for ef, cf in f.terms.items():
        for eg, cg in right:
            piece = pieces(ef, eg)
            if type(piece) is not dict:
                piece = piece.terms
            if not piece:
                continue
            scale = cf * cg
            if scale.den is not MU_POLY_ONE:
                return _on_numerators(f, g, space, pieces)
            unit = scale is one
            for exps, coeff in piece.items():
                if not unit:
                    # The unit pieces of a product skip a call to Coefficient.__mul__.
                    coeff = scale if coeff is one else coeff * scale
                acc = terms.get(exps)
                if acc is None:
                    terms[exps] = coeff
                    continue
                coeff = acc + coeff
                if coeff:
                    terms[exps] = coeff
                else:
                    del terms[exps]
    return Poly(space, terms)


def _on_numerators(f: Poly, g: Poly, space: Space, pieces: Pieces) -> Poly:
    """`bilinear` on the numerators of f and g, divided once by both denominators."""
    (p, dp), (q, dq) = f.split_denominator(), g.split_denominator()
    return bilinear(p, q, space, pieces).over(dp * dq)


def _product_piece(e1: Exponents, e2: Exponents) -> dict[Exponents, Coefficient]:
    """The one term of the product of two coefficient-1 monomials."""
    return {tuple(map(int.__add__, e1, e2)): scalars.ONE}


@lru_cache(maxsize=4096)
def _derivative_piece(d_exps: Exponents, t_exps: Exponents) -> dict[Exponents, Coefficient]:
    """The derivative of multi-order d_exps of the monomial t_exps, from ONE.

    {t - d: prod_i perm(t_i, d_i)}, or `_NO_TERMS` when some t_i < d_i.  One
    table for every operator, kernel and `differentiate` call; the dicts it
    returns are shared, and never written, like `_NO_TERMS`.
    """
    factor = 1
    for t, d in zip(t_exps, d_exps):
        if t < d:
            return _NO_TERMS
        factor *= math.perm(t, d)
    return {tuple(map(int.__sub__, t_exps, d_exps)): Coefficient.from_int(factor)}


_INT = frozenset({int})


def _check_term(exps, coeff, width: int) -> Exponents:
    """exps as a tuple; SpaceMismatchError unless it has `width` entries,
    ValueError unless each is a non-negative int (a bool is not one), and
    TypeError unless coeff is a Coefficient."""
    exps = tuple(exps)
    if len(exps) != width:
        raise SpaceMismatchError(f"exponent tuple {exps} does not fit a {width}-variable space")
    if not _INT.issuperset(map(type, exps)):
        raise ValueError(f"exponent tuple {exps} has an entry that is not an int")
    if exps and min(exps) < 0:
        raise ValueError(f"exponent tuple {exps} has a negative entry")
    if not isinstance(coeff, Coefficient):
        raise TypeError(f"coefficient {coeff!r} is not a Coefficient")
    return exps


def format_term(space: Space, exps: Exponents, coeff: Coefficient) -> str:
    mono = "*".join(
        name if e == 1 else f"{name}^{e}"
        for name, e in zip(space.names, exps)
        if e
    )
    if not mono:
        return str(coeff)
    if coeff == scalars.ONE:
        return mono
    if coeff == scalars.MINUS_ONE:
        return f"-{mono}"
    return f"{coeff.as_factor()}*{mono}"


def format_poly(poly: Poly) -> str:
    if not poly.terms:
        return "0"
    parts = [format_term(poly.space, e, c) for e, c in poly.sorted_terms()]
    return " + ".join(parts).replace("+ -", "- ")


def divide_exact(dividend: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Single-divisor multivariate division: dividend = q*divisor + r.

    No term of r is divisible by the leading term of the divisor, so when the
    divisor divides the dividend exactly the remainder is zero and the
    quotient is unique.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    dividend._check_space(divisor)
    lead_exps, lead_coeff = divisor.leading_term()
    quotient = Poly.zero(dividend.space)
    remainder_terms: dict[Exponents, Coefficient] = {}
    work = dividend
    while work.terms:
        exps, coeff = work.leading_term()
        if all(e >= l for e, l in zip(exps, lead_exps)):
            q_exps = tuple(e - l for e, l in zip(exps, lead_exps))
            q = Poly.monomial(work.space, q_exps, coeff / lead_coeff)
            quotient = quotient + q
            work = work - q * divisor
        else:
            remainder_terms[exps] = coeff
            work = Poly(work.space, {e: c for e, c in work.terms.items() if e != exps})
    return quotient, Poly(dividend.space, remainder_terms)


# -- packed form ---------------------------------------------------------------


def lift_scale(p: Poly) -> tuple[int, int]:
    """(scale, norm) for a p whose coefficients are polynomial in mu.

    scale is the lcm of the int denominators of the coefficients and norm
    the sum of the absolute values of the ints of scale * p, which are the
    digits of its lifted values.  Raises ValueError when a coefficient has a
    mu-denominator and DegreeGuardError when p's degree exceeds the guard,
    which sizes the exponent fields.
    """
    coeffs = p.terms.values()
    if not all(c.den.is_one for c in coeffs):
        raise ValueError("only coefficients polynomial in mu can be lifted")
    check_degree(p.total_degree(), "lifted")
    scale = math.lcm(*(c.num.d for c in coeffs))
    norm = sum(scale // c.num.d * sum(map(abs, c.num.re + c.num.im)) for c in coeffs)
    return scale, norm


def digit_width(bound: int) -> int:
    """The digit bits B for digits at most `bound` in absolute value: 2^(B-1) > bound."""
    return bound.bit_length() + 1


def _digits(value: int, digit_bits: int) -> list[int]:
    """The signed digits of a lifted value, mu^0 first; each lies in (-2^(B-1), 2^(B-1)]."""
    base, half = 1 << digit_bits, 1 << digit_bits - 1
    out = []
    while value:
        digit = value & base - 1
        if digit > half:
            digit -= base
        out.append(digit)
        value = value - digit >> digit_bits
    return out


def _drop_zeros(terms: dict) -> None:
    """Delete the entries of a packed dict whose values cancelled to zero."""
    for key in [key for key, value in terms.items() if not value]:
        del terms[key]


class Lifted:
    """A polynomial over `space` in packed form: `terms` / (`scale` * `den`).

    The layout is the module's (see Packed form): exponent fields of `bits`
    bits, digits of `digit_bits` bits, and an i field that is always 0 or 1.
    `terms` holds no zero value, so it is empty exactly when the polynomial
    is zero: the constructor trusts its dict, and each producer whose
    entries can cancel (`lift_slots`, the unfolded `block_product`)
    drops its zeros itself, while the folded products never store one.
    """

    __slots__ = ("terms", "scale", "den", "space", "bits", "digit_bits", "fields")

    def __init__(self, terms: dict, scale: int, den: MuPoly, space: Space, bits: int, digit_bits: int):
        self.terms = terms
        self.scale = scale
        self.den = den
        self.space = space
        self.bits = bits
        self.digit_bits = digit_bits
        # The block fields of a triple-space form, read by `_fields` when first folded.
        self.fields = None

    def by_degree(self) -> dict[int, "Lifted"]:
        """The form split by its degree field: {total degree: the entries of
        that degree, as a form of the same layout, scale and denominator}.
        The zero form has no blocks."""
        shift = 2 + len(self.space) * self.bits
        blocks: dict[int, dict[int, int]] = {}
        for key, value in self.terms.items():
            blocks.setdefault(key >> shift, {})[key] = value
        shared = (self.scale, self.den, self.space, self.bits, self.digit_bits)
        return {degree: Lifted(terms, *shared) for degree, terms in blocks.items()}

    def over(self, den: MuPoly) -> "Lifted":
        """self / den, sharing the entries."""
        if den.is_one:
            return self
        return Lifted(self.terms, self.scale, self.den * den, self.space, self.bits, self.digit_bits)

    def unlift(self) -> Poly:
        """The polynomial: the digits of each entry decoded, then `Poly.over(den)`."""
        width, bits, digit_bits = len(self.space), self.bits, self.digit_bits
        mask = (1 << bits) - 1
        shifts = range((width - 1) * bits, -1, -bits)
        by_monomial: dict[int, list[int]] = {}
        for key, value in self.terms.items():
            values = by_monomial.get(key >> 2)
            if values is None:
                values = by_monomial[key >> 2] = [0, 0]
            values[key & 1] = value
        shared: dict[tuple, Coefficient] = {}
        out: dict[Exponents, Coefficient] = {}
        for mono, (re_value, im_value) in by_monomial.items():
            coeff = shared.get((re_value, im_value))
            if coeff is None:
                re, im = _digits(re_value, digit_bits), ()
                if im_value:
                    im = _digits(im_value, digit_bits)
                    top = max(len(re), len(im))
                    re += [0] * (top - len(re))
                    im += [0] * (top - len(im))
                coeff = shared[re_value, im_value] = Coefficient.from_ints(re, im, self.scale)
            out[tuple([mono >> shift & mask for shift in shifts])] = coeff
        return Poly(self.space, out).over(self.den)

    def lead(self) -> tuple[Exponents, Coefficient]:
        """The leading term of the polynomial, decoded from the entries of the
        largest monomial alone; the form must be nonzero."""
        lead = max(self.terms) & ~1
        terms = {key: self.terms[key] for key in (lead, lead | 1) if key in self.terms}
        lead_form = Lifted(terms, self.scale, self.den, self.space, self.bits, self.digit_bits)
        return lead_form.unlift().leading_term()

    def degrees(self) -> tuple[int, int]:
        """The lowest and highest total degree of the monomials of a nonzero form."""
        shift = 2 + len(self.space) * self.bits
        return min(self.terms) >> shift, max(self.terms) >> shift

    def vanishes_at_mu_zero(self) -> bool:
        """Whether every coefficient is zero at mu = 0: with v the mu-valuation
        of `den`, an entry N / den is zero there exactly when the digits of N
        at mu^0, ..., mu^v are zero."""
        low = (1 << self.digit_bits * (self.den.valuation + 1)) - 1
        return not any(value & low for value in self.terms.values())


def block_product(
    left: dict[int, Lifted], right: dict[int, Lifted], fold: str | None = None
) -> Callable[[int], Lifted]:
    """The product of two forms split by degree (`Lifted.by_degree`), one
    output degree at a time: the function returned gives, for a degree d,
    the sum over d1 + d2 = d of left[d1] * right[d2], accumulated into one
    dict.  Keys of degree d1 and d2 add to a key of degree d1 + d2, so that
    block holds exactly the entries of degree d of the whole product; the
    whole product of two forms is the block at the sum of their top degrees
    of the one-block splits {top: form}.  This is the one product of packed
    forms; `block_lead` reads the lead of one folded block without building
    it.

    Monomials multiply by adding keys: the exponent fields are as wide as
    the degree guard, so no field carries while the product's degree fits
    the guard.  The mu-powers multiply inside the values (Kronecker
    substitution), and no digit carries when the digit bits B satisfy
    2^(B-1) > |x|_1 * |y|_1, the product of the sums of the absolute digit
    values of the two forms: each product digit is a signed sum of digit
    products, and each pair of entries and pair of digits adds to exactly
    one of them.  Choosing B is the caller's part.

    Every block of one side must share its layout, scale and denominator,
    as the blocks of one form do.  The layout and the degree guard are
    checked once, here, on the top degree max(left) + max(right), before
    any product: SpaceMismatchError when the layouts differ and
    DegreeGuardError when the top degree exceeds the guard or the exponent
    fields.  Each pair of entries costs one int multiply; the entries of a
    block that reach i-power 2 are folded into i-power 0 with a minus sign
    once, after its pairs.

    With a `fold` the forms lie over a triple space (u, v, w), and each
    pair's product is filed by block permutation as it is added.
    "alternating" adds it, with the sign of the sorting permutation, at the
    arrangement of its blocks in descending order, the largest key of its
    orbit under S3, and drops a pair with two equal blocks: a block holds
    the alternating sum over S3 at one key per orbit.  "cyclic" adds it at
    each of its three block rotations, the whole cyclic sum.  Degrees and
    powers of i are kept.  Each entry's three block fields are read once
    per form, when a block first needs them (`_fields`); a block
    accumulates at the packed (u, v, w) fields, one dict per power of i
    (i * i pairs add their negated product to the real one), and each key
    is made whole as it is popped, which frees the packed keys while the
    whole ones are made.  A digit of the fold is a signed sum of the
    contributions filed at its key, and no partial sum of one exceeds the
    sum of their absolute values: at most |x|_1 |y|_1 for the alternating
    fold and three times that for the cyclic one.  ValueError for another
    fold and SpaceMismatchError off a triple space.
    """
    shared = _product_layout(left, right)
    if fold is not None:
        return _folded_product(left, right, fold, shared)

    def block(degree: int) -> Lifted:
        terms: dict[int, int] = {}
        get = terms.get
        for left_degree, factor in left.items():
            other = right.get(degree - left_degree)
            if other is None:
                continue
            entries = list(other.terms.items())
            for k1, a in factor.terms.items():
                for k2, b in entries:
                    k = k1 + k2
                    terms[k] = get(k, 0) + a * b
        for k in [k for k in terms if k & 2]:
            terms[k ^ 2] = get(k ^ 2, 0) - terms.pop(k)
        _drop_zeros(terms)
        return Lifted(terms, *shared)

    return block


def _product_layout(left: dict[int, Lifted], right: dict[int, Lifted]) -> tuple:
    """The (scale, den, space, bits, digit_bits) of the product of two split
    forms, after the layout and degree checks of `block_product`."""
    x, y = next(iter(left.values())), next(iter(right.values()))
    layout = (x.space, x.bits, x.digit_bits)
    if layout != (y.space, y.bits, y.digit_bits):
        raise SpaceMismatchError("lifted forms differ in space, exponent fields or digit bits")
    top = max(left) + max(right)
    check_degree(top, "product")
    if top >> x.bits:
        raise DegreeGuardError(f"product degree {top} overflows exponent fields of {x.bits} bits")
    den = y.den if x.den.is_one else x.den if y.den.is_one else x.den * y.den
    return (x.scale * y.scale, den, *layout)


def _add_alternating(acc: dict, entries: list, others: list, s1: int, s2: int) -> None:
    """Add each pair's product at the descending arrangement of its (u, v, w)
    fields, packed as x << s2 | y << s1 | z, with the sign of the sorting
    permutation; a pair with two equal fields adds nothing."""
    get = acc.get
    for x1, y1, z1, a in entries:
        for x2, y2, z2, b in others:
            x, y, z = x1 + x2, y1 + y2, z1 + z2
            if x > y:
                if y > z:
                    key, value = x << s2 | y << s1 | z, a * b
                elif x > z:
                    if y == z:
                        continue
                    key, value = x << s2 | z << s1 | y, -a * b
                elif x == z:
                    continue
                else:
                    key, value = z << s2 | x << s1 | y, a * b
            elif y > x:
                if x > z:
                    key, value = y << s2 | x << s1 | z, -a * b
                elif y > z:
                    if x == z:
                        continue
                    key, value = y << s2 | z << s1 | x, a * b
                elif y == z:
                    continue
                else:
                    key, value = z << s2 | y << s1 | x, -a * b
            else:
                continue
            acc[key] = get(key, 0) + value


def _add_cyclic(acc: dict, entries: list, others: list, s1: int, s2: int) -> None:
    """Add each pair's product at its three rotations of (u, v, w) fields,
    packed as in `_add_alternating`."""
    get = acc.get
    for x1, y1, z1, a in entries:
        for x2, y2, z2, b in others:
            x, y, z, value = x1 + x2, y1 + y2, z1 + z2, a * b
            key = x << s2 | y << s1 | z
            acc[key] = get(key, 0) + value
            key = y << s2 | z << s1 | x
            acc[key] = get(key, 0) + value
            key = z << s2 | x << s1 | y
            acc[key] = get(key, 0) + value


def _arrangement_bounds(entries: list, top: tuple, s1: int, s2: int) -> list[int]:
    """The descending arrangement of the fields of each entry plus `top`,
    fieldwise, packed as in `_add_alternating`."""
    tx, ty, tz = top
    bounds = []
    for x, y, z, _ in entries:
        x, y, z = x + tx, y + ty, z + tz
        if x < y:
            x, y = y, x
        if y < z:
            y, z = z, y
            if x < y:
                x, y = y, x
        bounds.append(x << s2 | y << s1 | z)
    return bounds


def _rotation_bounds(entries: list, top: tuple, s1: int, s2: int) -> list[int]:
    """The largest rotation of the fields of each entry plus `top`,
    fieldwise, packed as in `_add_alternating`."""
    tx, ty, tz = top
    bounds = []
    for x, y, z, _ in entries:
        x, y, z = x + tx, y + ty, z + tz
        bounds.append(max(x << s2 | y << s1 | z, y << s2 | z << s1 | x, z << s2 | x << s1 | y))
    return bounds


# Each fold: (the function that adds its pairs, the bounds of `block_lead`).
_FOLDS = {
    "alternating": (_add_alternating, _arrangement_bounds),
    "cyclic": (_add_cyclic, _rotation_bounds),
}


def _folded_product(
    left: dict[int, Lifted], right: dict[int, Lifted], fold: str, shared: tuple
) -> Callable[[int], Lifted]:
    """`block_product` with a fold; `shared` is the blocks' (scale, den, space,
    bits, digit_bits)."""
    add, _, width = _fold_of(fold, shared[2], shared[3])
    degree_shift = 2 + 3 * width

    def block(degree: int) -> Lifted:
        real: dict[int, int] = {}
        imag: dict[int, int] = {}
        for left_degree, form in left.items():
            other = right.get(degree - left_degree)
            if other is None:
                continue
            l0, l1, l1_negated = _fields(form)
            r0, r1, _ = _fields(other)
            add(real, l0, r0, width, 2 * width)
            add(imag, l0, r1, width, 2 * width)
            add(imag, l1, r0, width, 2 * width)
            add(real, l1_negated, r1, width, 2 * width)
        terms: dict[int, int] = {}
        top = degree << degree_shift
        for i, part in enumerate((real, imag)):
            while part:
                key, value = part.popitem()
                if value:
                    terms[top | key << 2 | i] = value
        return Lifted(terms, *shared)

    return block


def block_lead(left: dict[int, Lifted], right: dict[int, Lifted], fold: str, degree: int) -> Lifted | None:
    """The leading entry of the degree block of `block_product(left, right,
    fold)`: a form holding the entries, real and i parts, of the block's
    largest monomial, or None when the block vanishes.  The block is not
    built.  Same checks and errors as `block_product`.

    For a left entry l, with R the right block it meets at this degree and
    Rmax the fieldwise maximum of the (u, v, w) fields of R's entries,
    UB(l) is the fold's largest image of l + Rmax: its descending
    arrangement, or its largest rotation.  The left entries are taken from
    a heap in descending UB, each multiplied by all of R and filed by the
    fold into the accumulators of `block_product`, and the read stops at
    the largest nonzero key that lies above every unread UB.

    Proof.  The fields of a key add: a pair's product has the fields l + r,
    no field carrying, and l + r <= l + Rmax fieldwise.  Sorting three
    fields descending is monotone fieldwise (the k-th largest of three
    numbers does not fall when one of them grows), and so is a rotation; a
    fieldwise larger triple is no smaller in key order, which compares the
    (u, v, w) fields in turn.  So every pair of l is filed at a key <=
    UB(l), and a pair the alternating fold drops (two equal fields) is
    dropped here too.  Hence a key above every unread UB receives nothing
    more: its value is final, as is every larger key, so the largest
    nonzero key above every unread UB is the block's largest nonzero key,
    and once every entry is read every key is final.  Each accumulator is
    a partial sum of the contributions the fold files at its key, so the
    digit bound of `block_product` holds for it.
    """
    shared = _product_layout(left, right)
    add, bounds, width = _fold_of(fold, shared[2], shared[3])
    s1, s2 = width, 2 * width
    pending = []
    for left_degree, form in left.items():
        other = right.get(degree - left_degree)
        if other is None:
            continue
        r0, r1, _ = _fields(other)
        top = [max(field) for field in zip(*[entry[:3] for entry in r0 + r1])]
        for i, entries in enumerate(_fields(form)[:2]):
            for bound, entry in zip(bounds(entries, top, s1, s2), entries):
                pending.append((-bound, len(pending), i, entry, r0, r1))
    heapify(pending)
    real: dict[int, int] = {}
    imag: dict[int, int] = {}
    # Keys filed so far, largest first; a key may appear more than once.
    candidates: list[int] = []
    while True:
        # The largest unread bound; once every entry is read, every key is final.
        unread = -pending[0][0] if pending else -1
        while candidates and -candidates[0] > unread:
            key = -heappop(candidates)
            values = real.get(key, 0), imag.get(key, 0)
            if any(values):
                whole = degree << 2 + 3 * width | key << 2
                return Lifted({whole | i: value for i, value in enumerate(values) if value}, *shared)
        if not pending:
            return None
        _, _, i, entry, r0, r1 = heappop(pending)
        # (accumulator, left entry, right entries), paired as `block_product` pairs them.
        if i:
            reads = ((imag, entry, r0), (real, (*entry[:3], -entry[3]), r1))
        else:
            reads = ((real, entry, r0), (imag, entry, r1))
        for acc, one, others in reads:
            if others:
                # A dict of its own, to learn the keys this entry files at.
                part: dict[int, int] = {}
                add(part, (one,), others, s1, s2)
                for key, value in part.items():
                    acc[key] = acc.get(key, 0) + value
                    heappush(candidates, -key)


def _fold_of(fold: str, space: Space, bits: int) -> tuple[Callable, Callable, int]:
    """(the two `_FOLDS` functions of `fold`, the bits of one block field)
    for forms over `space` with exponent fields of `bits` bits."""
    functions = _FOLDS.get(fold)
    if functions is None:
        raise ValueError(f"unknown fold {fold!r}: alternating, cyclic or None")
    n, rem = divmod(len(space), 6)
    if rem or space != triple_space(n):
        raise SpaceMismatchError(f"{space!r} is not a triple space")
    return *functions, 2 * n * bits


def _fields(form: Lifted) -> tuple[list, list, list]:
    """The (u field, v field, w field, value) of each entry of a triple-space
    form, real and i entries apart, and the i entries negated (i * i = -1,
    to meet the i entries of the right); read once per form and kept on it."""
    if form.fields is None:
        width = len(form.space) // 3 * form.bits
        mask, v_shift, u_shift = (1 << width) - 1, 2 + width, 2 + 2 * width
        split: tuple[list, list] = ([], [])
        for key, value in form.terms.items():
            split[key & 1].append((key >> u_shift & mask, key >> v_shift & mask, key >> 2 & mask, value))
        real, imag = split
        form.fields = real, imag, [(x, y, z, -value) for x, y, z, value in imag]
    return form.fields


def product_blocks(left: dict[int, Lifted], right: dict[int, Lifted], top: int) -> dict[int, Lifted]:
    """The nonzero blocks of degree at most top of the product of two forms
    split by degree (`block_product`), split the same way; {} when either
    form is zero.  No block above top is built."""
    if not left or not right:
        return {}
    product = block_product(left, right)
    blocks = {}
    for degree in range(min(left) + min(right), min(top, max(left) + max(right)) + 1):
        block = product(degree)
        if block.terms:
            blocks[degree] = block
    return blocks


def unlift_blocks(blocks: dict[int, Lifted], space: Space) -> Poly:
    """The polynomial of a form split by degree: the blocks merged, then
    `Lifted.unlift`; the zero polynomial over `space` when there is none."""
    if not blocks:
        return Poly.zero(space)
    merged: dict[int, int] = {}
    for block in blocks.values():
        # Blocks of distinct degrees share no key, none holds a zero, and all share one layout.
        merged.update(block.terms)
    return Lifted(merged, block.scale, block.den, block.space, block.bits, block.digit_bits).unlift()


def exp_bound(norm: int, scale: int, den: MuPoly, steps: int) -> int:
    """A bound on every digit, and every partial sum of one, that `exp_blocks`
    forms for a form x over `scale` and `den` with |x|_1 <= norm, in at
    most `steps` steps: sum_{k <= K} a^k b^(K-k) K!/k! for K = steps,
    a = m * norm and b = |q|_1 = scale * |m * den|_1 (see `exp_blocks`).
    It grows with K, as b >= 1."""
    a, b, whole = den.d * norm, scale * sum(map(abs, den.re + den.im)), math.factorial(steps)
    return sum(a**k * b ** (steps - k) * (whole // math.factorial(k)) for k in range(steps + 1))


def exp_blocks(x: Lifted, top: int) -> dict[int, Lifted]:
    """exp(x) through degree top, split by degree, for a form x with no
    constant term; the blocks share x's layout.

    With m the int denominator of the den of x, x = X/q for the
    integers X = m * (entries of x) and the Gaussian-integer polynomial in
    mu q = scale * m * den.  The powers of x past K = top // (lowest degree
    of x) lie above top, and Horner's rule sums the rest on integers:
    G_K = 1 and G_(j-1) = X * G_j + c_(j-1), c_(j-1) = j q c_j, give
    G_0 = sum_{k <= K} X^k q^(K-k) K!/k! = K! q^K exp(x), so the blocks are
    those of G_0 over the scale K! (scale * m)^K and the denominator den^K.
    G_j reaches degree top only through K - j more factors X, so only its
    blocks through top - j * lowest are built.  Each digit of G_j, and each
    partial sum of one, is at most the sum of the absolute contributions,
    so at most `exp_bound(|x|_1, x.scale, x.den, K)`: |G_j|_1 is at most
    sum_{i <= K-j} a^i b^(K-j-i) K!/(i+j)!, which is at most that bound
    term by term, the i-th against the (i+j)-th, when a >= 1 or j = 0,
    and is b^(K-j) K!/j! <= b^K K! when a = 0.  The digit bits must exceed
    the bound; choosing them is the caller's part.
    """
    steps, den, digit_bits = 0, x.den, x.digit_bits
    if x.terms:
        lowest = x.degrees()[0]
        if not lowest:
            raise ValueError("exponent must have zero constant term")
        steps = max(top, 0) // lowest
    m, layout = den.d, (x.space, x.bits, digit_bits)
    integral = (1, MU_POLY_ONE, *layout)
    factor = Lifted({key: m * value for key, value in x.terms.items()}, *integral).by_degree()
    # q packed: its mu^k coefficient in the k-th digit, real and i parts apart.
    q_re, q_im = (x.scale * sum(c << digit_bits * k for k, c in enumerate(part)) for part in (den.re, den.im))
    c_re, c_im = 1, 0
    blocks = {0: Lifted({0: 1}, *integral)}
    for j in range(steps, 0, -1):
        c_re, c_im = (c_re * q_re - c_im * q_im) * j, (c_re * q_im + c_im * q_re) * j
        # The constant c_(j-1) sits at the key of the monomial 1, its i part at i-power 1.
        constant = Lifted({key: value for key, value in ((0, c_re), (1, c_im)) if value}, *integral)
        blocks = {0: constant, **product_blocks(factor, blocks, top - (j - 1) * lowest)}
    scale = math.factorial(steps) * (x.scale * m) ** steps
    den_power = scalars.binary_power(den, steps, MU_POLY_ONE)
    return {degree: Lifted(block.terms, scale, den_power, *layout) for degree, block in blocks.items()}


# Bounds of the two tables of `lift_slots`: compiled slot maps, one per
# (source, target, maps, exponent-field bits), and binomial rows.
LIFT_PLAN_SIZE = 64
BINOMIAL_ROW_SIZE = 1024


@lru_cache(maxsize=LIFT_PLAN_SIZE)
def _lift_plan(source: Space, target: Space, maps: tuple, bits: int) -> tuple[int, tuple]:
    """(the sum of the |sign|s, one (sign, weights, steps) per map): the slot
    maps of `lift_slots` from `source` onto `target`, compiled for exponent
    fields of `bits` bits.

    The key of a monomial of the target is the sum of its exponents times
    the units, one key per target variable with the degree field included.
    Variable i of each block of the source goes to variable i of each
    target block its slot names, and weights[k] is the unit of the last of
    them for source variable k, the right one of a pair; x^e with
    x = l + r is r^e plus, for j = 1..e, C(e, j) l^j r^(e - j), so each
    (k, unit(l) - unit(r)) of `steps` is one step of l - r for a variable k
    sent to a pair.  SpaceMismatchError when the slots do not cut `source`
    into the blocks of a pair or triple space `target`, or a slot is not one
    or two letters naming blocks of it.
    """
    width = len(target)
    units = [1 << 2 + width * bits | 1 << 2 + (width - 1 - k) * bits for k in range(width)]
    placed = []
    for sign, *slots in maps:
        n, rem = divmod(len(source), 2 * len(slots))
        if rem or not n or target not in (pair_space(n), triple_space(n)):
            raise SpaceMismatchError(f"{len(slots)} slots of {source!r} do not map into {target!r}")
        block = 2 * n
        blocks = "uvw"[: width // block]
        keys = []
        for slot in slots:
            if not 0 < len(slot) < 3 or any(letter not in blocks for letter in slot):
                raise SpaceMismatchError(f"slot {slot!r} does not name one or two blocks of {target!r}")
            keys += [[units[blocks.index(letter) * block + i] for letter in slot] for i in range(block)]
        steps = tuple((k, pair[0] - pair[1]) for k, pair in enumerate(keys) if len(pair) == 2)
        placed.append((sign, tuple(pair[-1] for pair in keys), steps))
    return sum(abs(sign) for sign, *_ in maps), tuple(placed)


# The row of a map that sends no variable to a pair: the term's key, once.
_UNIT_ROW = ((0, 1),)


@lru_cache(maxsize=BINOMIAL_ROW_SIZE)
def _binomial_row(steps: tuple, exps: Exponents) -> tuple[tuple[int, int], ...]:
    """The (key offset, binomial multiple) of each image of the monomial
    `exps` under a map with these `steps` (see `_lift_plan`)."""
    row = _UNIT_ROW
    for k, step in steps:
        e = exps[k]
        if e:
            row = tuple((key + j * step, factor * math.comb(e, j)) for key, factor in row for j in range(e + 1))
    return row


def lift_slots(
    p: Poly, target: Space, maps: tuple, digit_bits: int | None = None, scaled: tuple[int, int] | None = None
) -> Lifted:
    """The signed sum of the images of a p polynomial in mu under slot maps,
    lifted onto the pair or triple space `target`.

    Each map is (sign, slot_1, ..., slot_k), slot_j a string naming the one
    or two target blocks ("u", "v", "w") whose sum replaces the j-th block
    of p, and its image is sign times p(slot_1, ..., slot_k).  Each
    coefficient of p is lifted once, and the images add its values, times
    their signs and binomial multiples, straight onto the int keys of the
    target: a one-block slot only moves an exponent to another field, and a
    power of a sum of two is expanded binomially.  An image of one term
    under one map has digits summing to at most 2^deg times the term's, deg
    the degree of p, times the map's |sign|, so by default the digits are
    wide enough for the sum itself; a caller that multiplies the result
    passes the width its product needs.  The exponent fields are as wide as
    the current degree guard.  `scaled` is `lift_scale(p)`, or that of a
    polynomial holding p's terms, for a caller that has already computed it
    to size the digits; otherwise it is computed here, once.

    Only the walk over the terms runs per call.  The maps are compiled once
    per (space of p, target, maps, exponent-field bits) in `_lift_plan`, a
    table of at most `LIFT_PLAN_SIZE` entries, so `maps` is a tuple, and the
    images of a term under a map that sends variables to pairs are read from
    `_binomial_row`, at most `BINOMIAL_ROW_SIZE` rows keyed by (the map's
    steps, the term's exponents).  Both are shared by every caller and
    thread and hold tuples only.  Images that cancel are dropped before the
    form is returned.
    """
    scale, norm = lift_scale(p) if scaled is None else scaled
    bits = _degree_guard.get().bit_length()
    signs, placed = _lift_plan(p.space, target, maps, bits)
    if digit_bits is None:
        digit_bits = digit_width(signs * norm << max(p.total_degree(), 0))
    terms: dict[int, int] = {}
    get = terms.get
    for exps, coeff in p.terms.items():
        num = coeff.num
        mult = scale // num.d
        re = im = 0
        for x in reversed(num.re):
            re = (re << digit_bits) + x * mult
        for y in reversed(num.im):
            im = (im << digit_bits) + y * mult
        for sign, weights, steps in placed:
            base = sum(map(int.__mul__, exps, weights))
            signed_re, signed_im = sign * re, sign * im
            for offset, factor in _binomial_row(steps, exps) if steps else _UNIT_ROW:
                key = base + offset
                if re:
                    terms[key] = get(key, 0) + factor * signed_re
                if im:
                    terms[key | 1] = get(key | 1, 0) + factor * signed_im
    _drop_zeros(terms)
    return Lifted(terms, scale, MU_POLY_ONE, target, bits, digit_bits)


def exp_series(start: Poly, step: Callable[[Poly, int], Poly]) -> Poly:
    """The sum of T_0 = start and T_k = step(T_(k-1), k), summed until a term vanishes.

    For exp(D) the step applies D/k, so T_k = D^k(start) / k! and no term is
    scaled by 1/k afterwards: `DiffOp` steps with the operator D/k, read from
    a bounded cache.
    """
    out = term = start
    k = 1
    while True:
        term = step(term, k)
        if not term:
            return out
        out = out + term
        k += 1


@lru_cache(maxsize=32)
def _step_operator(op: Poly, k: int) -> Poly:
    """op / k, the operator of the k-th step of exp(op); one entry per (operator, k).

    Keyed by the operator polynomial, so a DiffOp rebuilt from an equal
    polynomial (each `u_map` call builds one) still hits.
    """
    return op.scale_fraction(Fraction(1, k))


# Monomial images one operator keeps (`DiffOp.monomial_exp`); emptied when full.
IMAGE_MEMO_SIZE = 4096


class DiffOp:
    """A constant-coefficient differential operator against an aligned target.

    The exponent tuple of each term is the multi-order of partial derivatives;
    the arity must match the target space.  Operators built from sigma-space
    polynomials carry the scale rule sigma -> -i d/dz, i.e. every term is
    multiplied by (-i)^(total order).  One application is the walk `bilinear`
    over (operator term, target term) pairs, each pair's piece read from the
    shared derivative table `_derivative_piece`.

    The exponential has two routes.  A polynomial target (`apply_exp`, the
    route of `u_map`, whose operator meets one target) runs the D/k series,
    stepping with D/k from the bounded table `_step_operator`, shared by
    every operator, so a series does no per-term division; it is also the
    reference the images below are tested against.  A coefficient-1
    monomial (`monomial_exp`, for the exp pieces of a product operator,
    which meets many monomials sharing prefixes) is built from its prefix's
    image, in one dict: the shifted prefix terms, then D_i of the prefix
    image added in place, pair by pair from `_derivative_piece`.  The images
    are kept in a memo of at most `IMAGE_MEMO_SIZE` monomials, built on the
    first `monomial_exp` only; it holds terms and the items of each D_i,
    never the operator, so an operator is freed by reference counting alone.
    """

    __slots__ = ("poly", "_images", "_derivatives")

    def __init__(self, poly: Poly):
        self.poly = poly
        self._images = self._derivatives = None

    @classmethod
    def from_sigma_poly(cls, sigma_poly: Poly) -> "DiffOp":
        """Apply the sigma -> -i d/dz rule to a sigma-space polynomial."""
        terms = {
            exps: coeff * scalars.neg_i_power(sum(exps))
            for exps, coeff in sigma_poly.terms.items()
        }
        return cls(Poly(sigma_poly.space, terms))

    def _check_target(self, target: Poly):
        if len(self.poly.space) != len(target.space):
            raise SpaceMismatchError(
                "operator arity does not match the target space"
            )
        check_degree(target.total_degree(), "operand")

    def apply_once(self, target: Poly) -> Poly:
        """One application of the operator: `bilinear` with the derivative table."""
        self._check_target(target)
        return bilinear(self.poly, target, target.space, _derivative_piece)

    def apply_exp(self, target: Poly) -> Poly:
        """Apply exp of the operator: sum_k D^k(target) / k!, exactly.

        The target is checked against the operator's arity and the degree
        guard, then the generator: a constant term would not terminate.
        Every other term strictly lowers the target degree, so the series
        ends.  `exp_series` steps with D/k on the target's numerators, which
        are divided once at the end.
        """
        self._check_target(target)
        self._check_generator()
        p, den = target.split_denominator()
        op, space = self.poly, target.space
        series = exp_series(p, lambda t, k: bilinear(_step_operator(op, k), t, space, _derivative_piece))
        return series.over(den)

    def monomial_exp(self, exps: Exponents) -> dict[Exponents, Coefficient]:
        """The terms of exp(D) applied to the coefficient-1 monomial `exps`.

        The prefix of a nonconstant monomial m lowers its last nonzero
        exponent, at i, by one, and exp(D)m = x_i exp(D)p + D_i exp(D)p for
        its prefix p, exactly: D_i, the derivative of D's polynomial in its
        i-th variable, is [D, x_i] and commutes with D.  The images are built
        in a loop, upwards from the longest prefix in the memo, so no
        recursion grows with the degree, and each is kept; the terms
        returned are shared with the memo and never written.  The caller has
        checked the monomial.  As in `apply_exp`, a generator with a constant
        term c is refused: no D_i sees c, so the images would silently drop
        the factor e^c.
        """
        images, derivatives = self._images, self._derivatives
        if images is None:
            self._check_generator()
            derivatives = self._derivatives = [None] * len(self.poly.space)
            images = self._images = {}
        chain = []
        terms = images.get(exps)
        i = len(exps) - 1
        while terms is None:
            while i >= 0 and not exps[i]:
                i -= 1
            if i < 0:
                terms = {exps: scalars.ONE}
                break
            chain.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
            terms = images.get(exps)
        one = scalars.ONE
        for exps, i in reversed(chain):
            derivative = derivatives[i]
            if derivative is None:
                derivative = derivatives[i] = list(self.poly.differentiate(i).terms.items())
            image = {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in terms.items()}
            for e, c in terms.items():
                for d, dc in derivative:
                    piece = _derivative_piece(d, e)
                    if not piece:
                        continue
                    ((key, factor),) = piece.items()
                    coeff = dc * c
                    if factor is not one:
                        coeff = coeff * factor
                    acc = image.get(key)
                    if acc is None:
                        image[key] = coeff
                        continue
                    coeff = acc + coeff
                    if coeff:
                        image[key] = coeff
                    else:
                        del image[key]
            terms = image
            if len(images) >= IMAGE_MEMO_SIZE:
                images.clear()
            images[exps] = terms
        return terms

    def _check_generator(self):
        if self.poly.constant_term():
            raise NonterminatingSeriesError(
                "exponential of an operator with a constant term does not "
                "terminate on polynomials; factor the constant out first"
            )

    def __repr__(self):
        return f"DiffOp({self.poly})"
