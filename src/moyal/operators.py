"""Noncommutative polynomial operators and the symmetric-ordering correspondence.

This module is the package's independent verification path: operator algebra
here is pure rewriting with the canonical commutation relation and never
touches the bidifferential star-product machinery (`star.BiDiff`), so
agreement between the two routes is a genuine cross-check.  `nc_mul` shares
only the term-pair walk `poly.bilinear` with `Poly` multiplication and the
star product; the test suite's `oracle_nc_mul` stays the independent
reference for it.

Operators are polynomials in qh1..qhn, ph1..phn with

    [qh_i, ph_j] = 2*mu * delta_ij          (the dictionary i*hbar = 2*mu),

stored in canonical order: within every word all qh's stand to the left of
all ph's.  `nc_mul` restores canonical order with the closed-form rewriting

    ph^b qh^c = sum_j (-2*mu)^j binom(b, j) binom(c, j) j!  qh^(c-j) ph^(b-j),

applied independently in each dimension.  Bounded module tables keep
these coefficients per distinct (b, c), and the canonical words of each
distinct word pair, shared by every `nc_mul` call.

The symmetric-ordering (Weyl) correspondence is realized as q-left-of-p
substitution composed with the ordering-transition operator
exp(-mu * sum_i d/dq_i d/dp_i); its inverse uses the opposite sign.  The
composition is validated against brute-force word symmetrization in the test
suite.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

from . import scalars
from .errors import DimensionMismatchError
from .poly import DiffOp, Poly, Space, bilinear, check_degree, check_dimension, phase_space
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


_MINUS_TWO_MU = scalars.MU.scale_int(-2)

@lru_cache(maxsize=256)
def _reorder_steps(b: int, c: int) -> tuple[tuple[int, scalars.Coefficient], ...]:
    """(j, (-2 mu)^j binom(b, j) binom(c, j) j!) for j = 0..min(b, c): ph^b qh^c reordered."""
    return tuple(
        (j, (_MINUS_TWO_MU**j).scale_int(comb(b, j) * comb(c, j) * factorial(j)))
        for j in range(min(b, c) + 1)
    )


@lru_cache(maxsize=4096)
def _word_piece(w1: Exponents, w2: Exponents) -> dict[Exponents, scalars.Coefficient]:
    """The canonical words of w1 * w2 with their coefficients, from ONE.

    A bounded table shared by every `nc_mul` call, as `_reorder_steps` is:
    products of operands over the same words meet the same pairs again.  The
    dicts it returns are shared, and never written.
    """
    n = len(w1) // 2
    a, b = w1[:n], w1[n:]
    c, d = w2[:n], w2[n:]
    words = [((), scalars.ONE)]
    for i in range(n):
        words = [(js + (j,), cf * r) for js, cf in words for j, r in _reorder_steps(b[i], c[i])]
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
    return NCPoly._from_poly(n, bilinear(x.poly, y.poly, operator_space(n), _word_piece))


def _transition_op(n: int, sign: int) -> DiffOp:
    """exp generator sign*mu * sum_i d/dq_i d/dp_i on phase space."""
    space = phase_space(n)
    terms = {}
    for i in range(n):
        exps = [0] * (2 * n)
        exps[i] = 1
        exps[n + i] = 1
        terms[tuple(exps)] = scalars.MU.scale_int(sign)
    return DiffOp(Poly(space, terms))


def weyl_quantize(f: Poly) -> NCPoly:
    """The symmetric-ordering operator image of a phase-space polynomial.

    Computed as q-left substitution of exp(-mu sum d/dq d/dp) f; linear, and
    maps 1 to the identity operator.
    """
    n = phase_dimension(f.space)
    shifted = _transition_op(n, -1).apply_exp(f)
    return NCPoly._from_poly(n, shifted.in_space(operator_space(n)))


def weyl_symbol(op: NCPoly) -> Poly:
    """The two-sided inverse of weyl_quantize on polynomials."""
    return _transition_op(op.n, +1).apply_exp(op.poly.in_space(phase_space(op.n)))
