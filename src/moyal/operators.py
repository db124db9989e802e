"""Noncommutative polynomial operators and the symmetric-ordering correspondence.

This module is the package's independent verification path: operator algebra
here is pure rewriting with the canonical commutation relation and never
touches the bidifferential star-product machinery, so agreement between the
two routes is a genuine cross-check.

Operators are polynomials in qh1..qhn, ph1..phn with

    [qh_i, ph_j] = 2*mu * delta_ij          (the dictionary i*hbar = 2*mu),

stored in canonical order: within every word all qh's stand to the left of
all ph's.  `nc_mul` restores canonical order with the closed-form rewriting

    ph^b qh^c = sum_j (-2*mu)^j binom(b, j) binom(c, j) j!  qh^(c-j) ph^(b-j),

applied independently in each dimension.  One `nc_mul` call builds these
coefficients once per distinct (b, c) and keeps them for its word pairs.

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
from .errors import DegreeGuardError, DimensionMismatchError
from .poly import DiffOp, Poly, Space, get_degree_guard, phase_space
from .scalars import MU_POLY_ONE
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
    the generator names; only the product, `nc_mul`, differs.
    """

    __slots__ = ("n", "poly")

    def __init__(self, n: int, terms: dict[Exponents, scalars.Coefficient]):
        self.n = n
        self.poly = Poly(operator_space(n), terms)

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
        if not coeff:
            return cls(n, {})
        return cls(n, {tuple(exps): coeff})

    @classmethod
    def generator(cls, n: int, name: str) -> "NCPoly":
        """qh<i> or ph<i>."""
        kind, idx = name[:2], int(name[2:])
        if kind not in ("qh", "ph") or not 1 <= idx <= n:
            raise ValueError(f"unknown generator {name!r}")
        exps = [0] * (2 * n)
        exps[(idx - 1) if kind == "qh" else (n + idx - 1)] = 1
        return cls.word(n, tuple(exps))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        return NCPoly(self.n, (self.poly + other.poly).terms)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        return NCPoly(self.n, (self.poly - other.poly).terms)

    def scale(self, coeff: scalars.Coefficient) -> "NCPoly":
        return NCPoly(self.n, self.poly.scale(coeff).terms)

    def _check(self, other: "NCPoly"):
        if self.n != other.n:
            raise DimensionMismatchError("operator dimensions disagree")

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return f"NCPoly(n={self.n}, {self})"


_MINUS_TWO_MU = scalars.MU.scale_int(-2)

ReorderSteps = list[tuple[int, scalars.Coefficient]]


def _reorder_steps(b: int, c: int) -> ReorderSteps:
    """(j, (-2 mu)^j binom(b, j) binom(c, j) j!) for j = 0..min(b, c): ph^b qh^c reordered."""
    return [
        (j, (_MINUS_TWO_MU**j).scale_int(comb(b, j) * comb(c, j) * factorial(j)))
        for j in range(min(b, c) + 1)
    ]


def _word_product(
    n: int, w1: Exponents, w2: Exponents, coeff, reorder: dict[tuple[int, int], ReorderSteps]
):
    """Multiply canonical words: yields (word, coefficient) pieces.

    `reorder` maps (b_i, c_i) to its `_reorder_steps`; it is filled on demand.
    """
    a, b = w1[:n], w1[n:]
    c, d = w2[:n], w2[n:]
    pieces = [((), coeff)]
    for i in range(n):
        key = (b[i], c[i])
        steps = reorder.get(key)
        if steps is None:
            steps = reorder[key] = _reorder_steps(*key)
        pieces = [(js + (j,), cf * r) for js, cf in pieces for j, r in steps]
    for js, cf in pieces:
        word = tuple(a[i] + c[i] - js[i] for i in range(n)) + tuple(
            b[i] + d[i] - js[i] for i in range(n)
        )
        yield word, cf


def nc_mul(x: NCPoly, y: NCPoly) -> NCPoly:
    """The operator product, rewritten to canonical (q-left) order. Exact."""
    x._check(y)
    guard = get_degree_guard()
    if x.poly.total_degree() + y.poly.total_degree() > guard:
        raise DegreeGuardError(f"operand degrees exceed the guard ({guard})")
    n = x.n
    terms: dict[Exponents, scalars.Coefficient] = {}
    reorder: dict[tuple[int, int], ReorderSteps] = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            scale = c1 * c2
            if scale.den is not MU_POLY_ONE:
                (p, dx), (q, dy) = x.poly.split_denominator(), y.poly.split_denominator()
                product = nc_mul(NCPoly(n, p.terms), NCPoly(n, q.terms))
                return NCPoly(n, product.poly.over(dx * dy).terms)
            for word, coeff in _word_product(n, w1, w2, scale, reorder):
                acc = terms.get(word)
                coeff = coeff if acc is None else acc + coeff
                if coeff:
                    terms[word] = coeff
                else:
                    del terms[word]
    return NCPoly(n, terms)


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
    return NCPoly(n, dict(shifted.terms))


def weyl_symbol(op: NCPoly) -> Poly:
    """The two-sided inverse of weyl_quantize on polynomials."""
    space = phase_space(op.n)
    raw = Poly(space, dict(op.terms))
    return _transition_op(op.n, +1).apply_exp(raw)
