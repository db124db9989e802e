"""Noncommutative polynomial operators and the symmetric-ordering correspondence.

This module is the package's independent verification path: operator algebra
here is pure rewriting with the canonical commutation relation and never
touches the bidifferential star-product machinery (`star.BiDiff`) or the
differential operators (`poly.DiffOp`), so agreement between the two routes
is a genuine cross-check.  It shares only the term-pair walk `poly.bilinear`
with `Poly` multiplication and the star product; the test suite's
`oracle_nc_mul` and its D/k series oracles for the transitions stay the
independent references.

Operators are polynomials in qh1..qhn, ph1..phn with

    [qh_i, ph_j] = 2*mu * delta_ij          (the dictionary i*hbar = 2*mu),

stored in canonical order: within every word all qh's stand to the left of
all ph's.  `nc_mul` restores canonical order with the closed-form rewriting

    ph^b qh^c = sum_j (s*mu)^j binom(b, j) binom(c, j) j!  qh^(c-j) ph^(b-j),

where ph qh = qh ph + s*mu (here s = -2), applied independently in each
dimension: each of the j contractions pairs one of the b ph's with one of
the c qh's, in binom(b, j) binom(c, j) j! ways.

The symmetric-ordering (Weyl) correspondence is q-left-of-p substitution
composed with the ordering transition exp(-mu * sum_i d/dq_i d/dp_i); its
inverse uses +mu.  A transition is the same contraction: per dimension,

    exp(s*mu d/dq d/dp) q^a p^b = sum_j (s*mu)^j binom(a, j) binom(b, j) j!  q^(a-j) p^(b-j),

since the j-th term of the series is (s*mu)^j / j! * a!/(a-j)! * b!/(b-j)! times
the monomial.  So the transition of q^a p^b is the canonical form of
p^b q^a where ph qh = qh ph + s*mu, with s = -1 or +1.  One bounded table
of these coefficients per (s, b, c), and one of the canonical words per
(s, word pair), serve `nc_mul` and both transitions, each of which is one
walk `poly.bilinear` (a transition walks its operand against the constant
1), so all three share its denominator rule.  The composition is validated
against brute-force word symmetrization in the test suite.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb, factorial

from . import scalars
from .errors import DimensionMismatchError
from .poly import Poly, Space, bilinear, check_degree, check_dimension, phase_space
from .star import phase_dimension

Exponents = tuple[int, ...]


@lru_cache(maxsize=64)
def operator_space(n: int) -> Space:
    """The generator names qh1..qhn, ph1..phn, in canonical word order."""
    return Space(
        [f"qh{i}" for i in range(1, n + 1)] + [f"ph{i}" for i in range(1, n + 1)]
    )


class NCPoly:
    """A canonically ordered noncommutative polynomial in qh, ph.

    terms maps (q-exponents + p-exponents) words to nonzero coefficients.
    Addition, scaling and printing are those of the commutative `Poly` over
    the generator names; only the product, `nc_mul`, differs.  The
    constructor checks its input and drops zero coefficients; the package's
    own results wrap their `Poly` as it is (`_from_poly`).
    """

    __slots__ = ("n", "poly")

    def __init__(self, n: int, terms: dict[Exponents, scalars.Coefficient]):
        check_dimension(n)
        width = 2 * n
        for word, coeff in terms.items():
            if not (
                type(word) is tuple
                and len(word) == width
                and all(type(e) is int and e >= 0 for e in word)
            ):
                raise ValueError(f"word {word!r} is not {width} non-negative ints")
            if not isinstance(coeff, scalars.Coefficient):
                raise TypeError(f"coefficient {coeff!r} of word {word} is not a Coefficient")
        self.n = n
        self.poly = Poly(operator_space(n), {w: c for w, c in terms.items() if c})

    @classmethod
    def _from_poly(cls, n: int, poly: Poly) -> "NCPoly":
        """Trusted: `poly` is already over operator_space(n)."""
        x = object.__new__(cls)
        x.n = n
        x.poly = poly
        return x

    @property
    def terms(self) -> dict[Exponents, scalars.Coefficient]:
        return self.poly.terms

    @classmethod
    def zero(cls, n: int) -> "NCPoly":
        return cls(n, {})

    @classmethod
    def identity(cls, n: int) -> "NCPoly":
        return cls(n, {(0,) * (2 * n): scalars.ONE})

    @classmethod
    def word(cls, n: int, exps: Exponents, coeff=scalars.ONE) -> "NCPoly":
        return cls._from_poly(n, Poly.monomial(operator_space(n), exps, coeff))

    @classmethod
    def generator(cls, n: int, name: str) -> "NCPoly":
        """qh<i> or ph<i>, with i in ASCII decimal digits and 1 <= i <= n."""
        kind, digits = name[:2], name[2:]
        idx = int(digits) if digits.isascii() and digits.isdigit() else 0
        if kind not in ("qh", "ph") or not 1 <= idx <= n:
            raise ValueError(f"unknown generator {name!r}")
        exps = [0] * (2 * n)
        exps[(idx - 1) if kind == "qh" else (n + idx - 1)] = 1
        return cls.word(n, tuple(exps))

    def __bool__(self):
        return bool(self.poly)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        return NCPoly._from_poly(self.n, self.poly + other.poly)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        return NCPoly._from_poly(self.n, self.poly - other.poly)

    def scale(self, coeff: scalars.Coefficient) -> "NCPoly":
        return NCPoly._from_poly(self.n, self.poly.scale(coeff))

    def _check(self, other: "NCPoly"):
        if self.n != other.n:
            raise DimensionMismatchError("operator dimensions disagree")

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"NCPoly(n={self.n}, {self})"


@lru_cache(maxsize=256)
def _reorder_steps(s: int, b: int, c: int) -> tuple[tuple[int, scalars.Coefficient], ...]:
    """(j, (s mu)^j binom(b, j) binom(c, j) j!) for j = 0..min(b, c): ph^b qh^c
    reordered where ph qh = qh ph + s*mu."""
    scale = scalars.MU.scale_int(s)
    return tuple(
        (j, (scale**j).scale_int(comb(b, j) * comb(c, j) * factorial(j)))
        for j in range(min(b, c) + 1)
    )


@lru_cache(maxsize=4096)
def _word_piece(s: int, w1: Exponents, w2: Exponents) -> dict[Exponents, scalars.Coefficient]:
    """The canonical words of w1 * w2 where ph qh = qh ph + s*mu, from ONE.

    A bounded table shared by every `nc_mul` call (s = -2) and both Weyl
    transitions (s = -1 and +1), as `_reorder_steps` is: products of operands
    over the same words meet the same pairs again.  The dicts it returns are
    shared, and never written.
    """
    n = len(w1) // 2
    a, b = w1[:n], w1[n:]
    c, d = w2[:n], w2[n:]
    words = [((), scalars.ONE)]
    for i in range(n):
        words = [(js + (j,), cf * r) for js, cf in words for j, r in _reorder_steps(s, b[i], c[i])]
    return {
        tuple(a[i] + c[i] - js[i] for i in range(n))
        + tuple(b[i] + d[i] - js[i] for i in range(n)): cf
        for js, cf in words
    }


def nc_mul(x: NCPoly, y: NCPoly) -> NCPoly:
    """The operator product, rewritten to canonical (q-left) order. Exact."""
    x._check(y)
    check_degree(x.poly.total_degree() + y.poly.total_degree(), "operand")
    n = x.n
    return NCPoly._from_poly(n, bilinear(x.poly, y.poly, operator_space(n), partial(_word_piece, -2)))


def _transition_piece(s: int, e: Exponents, zeros: Exponents) -> dict[Exponents, scalars.Coefficient]:
    """exp(s mu sum_i d/dq_i d/dp_i) of the monomial q^a p^b (e = a + b): the
    canonical form of p^b q^a where ph qh = qh ph + s*mu.  `zeros` is the
    exponent tuple of the constant 1 that the walk pairs e with."""
    n = len(e) // 2
    return _word_piece(s, zeros[:n] + e[n:], e[:n] + zeros[n:])


def _transition(f: Poly, space: Space, s: int) -> Poly:
    """exp(s mu sum_i d/dq_i d/dp_i) f over `space`: one walk of f against 1."""
    check_degree(f.total_degree(), "operand")
    return bilinear(f, Poly.one(f.space), space, partial(_transition_piece, s))


def weyl_quantize(f: Poly) -> NCPoly:
    """The symmetric-ordering operator image of a phase-space polynomial.

    The q-left words of exp(-mu sum d/dq d/dp) f; linear, and maps 1 to the
    identity operator.
    """
    n = phase_dimension(f.space)
    return NCPoly._from_poly(n, _transition(f, operator_space(n), -1))


def weyl_symbol(op: NCPoly) -> Poly:
    """The two-sided inverse of weyl_quantize on polynomials: exp(+mu sum d/dq d/dp)."""
    return _transition(op.poly, phase_space(op.n), +1)
