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
the target's total degree.

Denominators.  Adding two coefficients over different denominators runs
Euclid over Q(i)[mu], so the accumulation loops do not add rational
coefficients.  `split_denominator` turns p into (P, D): D is the monic lcm of
the coefficient denominators and P = D*p has coefficients polynomial in mu.
`P.over(D)` divides back with one `Coefficient.make` per term, by the term's
own denominator times D, since a kernel piece may bring denominators of its
own.  The bilinear loops (`Poly.mul_truncated`, `star.BiDiff` and
`operators.nc_mul`) split at the first pair of terms whose product has a
denominator: they split both operands, run the same loop on P and Q and
return `.over(Dp*Dq)`.  Operands without denominators pay one identity test
per pair.  They do not split on entry: the usual operand is a monomial with
no denominator, and splitting both operands up front would cost about a
quarter of a memoised monomial `star`.  The linear `DiffOp.apply_once` and
`apply_exp` split their target on entry, one test per term.  Every output is canonical, so it equals the
per-term sum exactly.

A configurable total-degree guard (default 64) makes runaway computations
fail fast instead of exhausting memory.  The bound is a context variable, so
a bound set in one thread does not leak into another.

Packed form.  `lifted_mul` multiplies two polynomials whose coefficients
are polynomial in mu on exact integer data (Kronecker substitution with
packed monomials): one int key per (monomial, mu-power, power of i) and one
int value per key, all over one int denominator.  A key holds, from the top,
the total degree, the exponents in order, the mu exponent and a 2-bit field
for the power of i, so a Gaussian coefficient (x + y*i) mu^k is two entries.
The exponent fields are as wide as the degree guard and the mu field as wide
as the product's mu-degree, so monomials multiply by adding keys and no field
carries; keys of one degree compare as the exponent tuples do.  The product
folds i^2 = -1 once, which leaves every i field at 0 or 1, and `unlift`
reads the keys back into a `Poly`.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import lru_cache
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

# A new thread starts from the default bound: a bound set with
# set_degree_guard or degree_guard is seen only in the context that set it.
_degree_guard: ContextVar[int] = ContextVar("moyal_degree_guard", default=64)


def _checked_bound(bound: int) -> int:
    if bound < 1:
        raise ValueError("degree guard must be positive")
    return bound


def set_degree_guard(bound: int) -> None:
    """Set the total-degree bound for products in the current context (default 64)."""
    _degree_guard.set(_checked_bound(bound))


def get_degree_guard() -> int:
    return _degree_guard.get()


def check_degree(degree: int, what: str) -> None:
    """Raise DegreeGuardError when a `what` degree exceeds the current guard."""
    guard = _degree_guard.get()
    if degree > guard:
        raise DegreeGuardError(
            f"{what} degree would exceed the guard ({guard}); "
            "raise it with set_degree_guard or MOYAL_MAX_DEGREE"
        )


@contextmanager
def degree_guard(bound: int) -> Iterator[None]:
    """Use `bound` as the total-degree bound inside the block, then restore it."""
    token = _degree_guard.set(_checked_bound(bound))
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
    """A sparse polynomial: {exponent tuple: nonzero Coefficient} over a Space."""

    __slots__ = ("space", "terms", "_hash")

    def __init__(self, space: Space, terms: dict[Exponents, Coefficient]):
        # Trusted constructor: `terms` must already be clean (no zeros).
        self.space = space
        self.terms = terms
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, space: Space, items) -> "Poly":
        terms: dict[Exponents, Coefficient] = {}
        width = len(space)
        for exps, coeff in items:
            exps = _check_exponents(exps, width)
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
        if not coeff:
            return cls(space, {})
        return cls(space, {(0,) * len(space): coeff})

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
        exps = _check_exponents(exps, len(space))
        if not coeff:
            return cls(space, {})
        return cls(space, {exps: coeff})

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        return max(map(sum, self.terms)) if self.terms else -1

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
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly(self.space, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul_truncated(other, self.total_degree() + other.total_degree())

    def mul_truncated(self, other: "Poly", max_degree: int) -> "Poly":
        """(self * other).truncate_degree(max_degree), skipping every pair above the bound."""
        self._check_space(other)
        if not self.terms or not other.terms:
            return Poly(self.space, {})
        check_degree(self.total_degree() + other.total_degree(), "product")
        right = sorted(((sum(e), e, c) for e, c in other.terms.items()), key=lambda t: t[0])
        terms: dict[Exponents, Coefficient] = {}
        for e1, c1 in self.terms.items():
            room = max_degree - sum(e1)
            for d2, e2, c2 in right:
                if d2 > room:
                    break
                c = c1 * c2
                if c.den is not MU_POLY_ONE:
                    (p, dp), (q, dq) = self.split_denominator(), other.split_denominator()
                    return p.mul_truncated(q, max_degree).over(dp * dq)
                exps = tuple(map(int.__add__, e1, e2))
                acc = terms.get(exps)
                c = c if acc is None else acc + c
                if c:
                    terms[exps] = c
                else:
                    terms.pop(exps, None)
        return Poly(self.space, terms)

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
        out = Poly.one(self.space)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def split_denominator(self) -> tuple["Poly", MuPoly]:
        """(P, D) with D the monic lcm of the coefficient denominators and P = D * self.

        The coefficients of P are polynomial in mu.  Without denominators this
        is (self, MU_POLY_ONE) and nothing is built.
        """
        den = scalars.common_denominator(self.terms.values())
        if den is MU_POLY_ONE:
            return self, den
        return Poly(self.space, {e: c.cleared(den) for e, c in self.terms.items()}), den

    def over(self, den: MuPoly) -> "Poly":
        """self / den, with one canonical `Coefficient.make` per term."""
        if den.is_one:
            return self
        return Poly(self.space, {e: c.over(den) for e, c in self.terms.items()})

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
        if order == 0:
            return self
        terms: dict[Exponents, Coefficient] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e < order:
                continue
            factor = math.perm(e, order)
            new = list(exps)
            new[idx] = e - order
            terms[tuple(new)] = coeff.scale_int(factor)
        return Poly(self.space, terms)

    # -- structure ---------------------------------------------------------

    def map_exponents(self, fn: Callable[[Exponents], Exponents], space: Space) -> "Poly":
        """Reindex terms through `fn` into `space`, summing collisions."""
        return Poly.from_terms(space, ((fn(e), c) for e, c in self.terms.items()))

    def homogeneous_component(self, degree: int) -> "Poly":
        return Poly(
            self.space, {e: c for e, c in self.terms.items() if sum(e) == degree}
        )

    def truncate_degree(self, max_degree: int) -> "Poly":
        return Poly(
            self.space, {e: c for e, c in self.terms.items() if sum(e) <= max_degree}
        )

    def evaluate(self, values: list[Coefficient]) -> Coefficient:
        """Full evaluation at a point with Coefficient coordinates."""
        if len(values) != len(self.space):
            raise SpaceMismatchError("one value per variable is required")
        total = scalars.ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            total = total + term
        return total

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


def _check_exponents(exps, width: int) -> Exponents:
    """exps as a tuple; SpaceMismatchError unless it has `width` entries,
    ValueError if one is negative."""
    exps = tuple(exps)
    if len(exps) != width:
        raise SpaceMismatchError(f"exponent tuple {exps} does not fit a {width}-variable space")
    if exps and min(exps) < 0:
        raise ValueError(f"exponent tuple {exps} has a negative entry")
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

# A lifted polynomial: {key: int}, the int denominator, and the layout
# (number of variables, exponent field bits, mu field bits).
Lifted = tuple[dict[int, int], int, tuple[int, int, int]]


def _mu_degree(p: Poly) -> int:
    return max((c.num.degree for c in p.terms.values()), default=0)


def _pack(p: Poly, mu_bits: int) -> Lifted:
    coeffs = p.terms.values()
    if not all(c.den.is_one for c in coeffs):
        raise ValueError("only coefficients polynomial in mu can be lifted")
    check_degree(p.total_degree(), "lifted")
    bits = _degree_guard.get().bit_length()
    den = math.lcm(*(c.num.d for c in coeffs))
    terms = {}
    for exps, coeff in p.terms.items():
        key = sum(exps)
        for e in exps:
            key = key << bits | e
        key <<= mu_bits
        num = coeff.num
        scale = den // num.d
        for k, x in enumerate(num.re):
            if x:
                terms[(key | k) << 2] = x * scale
        for k, y in enumerate(num.im):
            if y:
                terms[(key | k) << 2 | 1] = y * scale
    return terms, den, (len(p.space), bits, mu_bits)


def unlift(lifted: Lifted, space: Space) -> Poly:
    """The polynomial over `space` of a lifted form; zero entries are allowed and dropped.

    The i field of every key must be 0 or 1, as `lifted_mul` leaves it.
    """
    terms, den, (width, bits, mu_bits) = lifted
    if width != len(space):
        raise SpaceMismatchError(f"a lifted form of {width} variables does not fit {space!r}")
    mask, low, low_mask = (1 << bits) - 1, mu_bits + 2, (1 << mu_bits + 2) - 1
    shifts = range((width - 1) * bits, -1, -bits)
    by_monomial: dict[int, dict[int, int]] = {}
    for key, x in terms.items():
        by_monomial.setdefault(key >> low, {})[key & low_mask] = x
    shared: dict[tuple, Coefficient] = {}
    out: dict[Exponents, Coefficient] = {}
    for key, parts in by_monomial.items():
        top = (max(parts) >> 2) + 1
        re, im = [0] * top, [0] * top
        for k, x in parts.items():
            (im if k & 1 else re)[k >> 2] = x
        value = (*re, *im)
        coeff = shared.get(value)
        if coeff is None:
            coeff = shared[value] = Coefficient.from_ints(re, im, den)
        if coeff:
            out[tuple([key >> shift & mask for shift in shifts])] = coeff
    return Poly(space, out)


def lifted_mul(p: Poly, q: Poly) -> Lifted:
    """p * q in packed form.

    Both operands are lifted with a mu field as wide as the product's
    mu-degree, so monomials multiply by adding keys and no field carries.
    Each pair of entries costs one int multiply; the entries that reach
    i-power 2 are folded into i-power 0 with a minus sign once, after the
    loop.  Raises DegreeGuardError like `Poly.__mul__` and ValueError when a
    coefficient has a mu-denominator.
    """
    p._check_space(q)
    check_degree(p.total_degree() + q.total_degree(), "product")
    mu_bits = (_mu_degree(p) + _mu_degree(q)).bit_length()
    (xt, x_den, layout), (yt, y_den, _) = _pack(p, mu_bits), _pack(q, mu_bits)
    terms: dict[int, int] = {}
    get = terms.get
    right = list(yt.items())
    for k1, x in xt.items():
        for k2, y in right:
            k = k1 + k2
            terms[k] = get(k, 0) + x * y
    for k in [k for k in terms if k & 2]:
        terms[k ^ 2] = get(k ^ 2, 0) - terms.pop(k)
    return {k: v for k, v in terms.items() if v}, x_den * y_den, layout


class DiffOp:
    """A constant-coefficient differential operator against an aligned target.

    The exponent tuple of each term is the multi-order of partial derivatives;
    the arity must match the target space.  Operators built from sigma-space
    polynomials carry the scale rule sigma -> -i d/dz, i.e. every term is
    multiplied by (-i)^(total order).
    """

    __slots__ = ("poly",)

    def __init__(self, poly: Poly):
        self.poly = poly

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
        """One application of the operator (a single derivation-polynomial pass)."""
        self._check_target(target)
        p, den = target.split_denominator()
        return self._apply_once(p).over(den)

    def _apply_once(self, target: Poly) -> Poly:
        terms: dict[Exponents, Coefficient] = {}
        for d_exps, d_coeff in self.poly.terms.items():
            for t_exps, t_coeff in target.terms.items():
                factor = 1
                for t, d in zip(t_exps, d_exps):
                    if d:
                        if t < d:
                            factor = 0
                            break
                        factor *= math.perm(t, d)
                if not factor:
                    continue
                exps = tuple(t - d for t, d in zip(t_exps, d_exps))
                c = (d_coeff * t_coeff).scale_int(factor)
                acc = terms.get(exps)
                c = c if acc is None else acc + c
                if c:
                    terms[exps] = c
                else:
                    terms.pop(exps, None)
        return Poly(target.space, terms)

    def apply_exp(self, target: Poly) -> Poly:
        """Apply exp of the operator: sum_k D^k(target) / k!, exactly.

        The generator must have a zero constant term; every remaining term
        strictly lowers the target degree, so the series terminates and only
        the target itself is checked against the degree guard.  The series
        runs on the target's numerators and is divided once at the end.
        """
        if self.poly.constant_term():
            raise NonterminatingSeriesError(
                "exponential of an operator with a constant term does not "
                "terminate on polynomials; factor the constant out first"
            )
        self._check_target(target)
        result, den = target.split_denominator()
        term = result
        k = 1
        while term.terms:
            term = self._apply_once(term).scale_fraction(Fraction(1, k))
            result = result + term
            k += 1
        return result.over(den)

    def __repr__(self):
        return f"DiffOp({self.poly})"
