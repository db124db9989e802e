"""Exact scalars: the field Q(i)(mu) of rational functions in a formal symbol mu.

Test oracle: the Fraction-based implementation that moyal.scalars had before
it moved to Gaussian-integer numerators over one integer denominator.  It is
kept unchanged apart from this paragraph and an absolute import, and
test_scalars_oracle.py runs random operation sequences on both.

Every scalar in this package is a quotient of two univariate polynomials in
the deformation symbol ``mu`` whose coefficients are Gaussian rationals
(a + b*i with a, b exact rationals).  Arithmetic is exact throughout; there
is no floating point anywhere in the package.

Canonical form: the denominator is monic in mu and coprime to the numerator,
so structural equality coincides with mathematical equality and Coefficient
values can be used as dictionary keys.

Physics dictionary, fixed once for the whole package: mu = i*hbar/2, so the
canonical commutator [q, p] = i*hbar reads 2*mu here.
"""

from __future__ import annotations

from fractions import Fraction

from moyal.errors import PoleAtMuZeroError

_ZERO_F = Fraction(0)
_ONE_F = Fraction(1)


class GaussRational:
    """A Gaussian rational a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return GaussRational(a * c, _ZERO_F)
        return GaussRational(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        c, d = other.re, other.im
        if not d:
            return GaussRational(self.re / c, self.im / c)
        norm = c * c + d * d
        a, b = self.re, self.im
        return GaussRational((a * c + b * d) / norm, (b * c - a * d) / norm)

    def scale(self, q: Fraction) -> "GaussRational":
        return GaussRational(self.re * q, self.im * q)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gauss(self)


GR_ZERO = GaussRational(0, 0)
GR_ONE = GaussRational(1, 0)
GR_I = GaussRational(0, 1)


def format_gauss(g: GaussRational) -> str:
    """Render a Gaussian rational; mixed values come out as 'a+b*i' (no parens)."""
    re, im = g.re, g.im
    if not im:
        return str(re)
    if im == 1:
        im_str = "i"
    elif im == -1:
        im_str = "-i"
    else:
        im_str = f"{im}*i"
    if not re:
        return im_str
    if im_str.startswith("-"):
        return f"{re}{im_str}"
    return f"{re}+{im_str}"


class MuPoly:
    """A univariate polynomial in mu over the Gaussian rationals.

    Coefficients are stored densely, constant term first, with no trailing
    zeros; the zero polynomial is the empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[GaussRational, ...]):
        self.coeffs = coeffs

    @classmethod
    def from_seq(cls, seq) -> "MuPoly":
        coeffs = list(seq)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return cls(tuple(coeffs))

    @classmethod
    def const(cls, g: GaussRational) -> "MuPoly":
        return cls((g,)) if g else cls(())

    @property
    def degree(self) -> int:
        """Degree in mu; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == GR_ONE

    def __eq__(self, other):
        if not isinstance(other, MuPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, g in enumerate(b):
            out[k] = out[k] + g
        return MuPoly.from_seq(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MuPoly(tuple(-g for g in self.coeffs))

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return MU_POLY_ZERO
        if len(a) == 1 and len(b) == 1:
            return MuPoly.from_seq((a[0] * b[0],))
        out = [GR_ZERO] * (len(a) + len(b) - 1)
        for i, ga in enumerate(a):
            if not ga:
                continue
            for j, gb in enumerate(b):
                if gb:
                    out[i + j] = out[i + j] + ga * gb
        return MuPoly.from_seq(out)

    def scale(self, g: GaussRational) -> "MuPoly":
        if not g:
            return MU_POLY_ZERO
        return MuPoly.from_seq(c * g for c in self.coeffs)

    @property
    def leading(self) -> GaussRational:
        return self.coeffs[-1] if self.coeffs else GR_ZERO

    def monic(self) -> "MuPoly":
        lc = self.leading
        if lc == GR_ONE:
            return self
        return self.scale(GR_ONE / lc)

    def divmod(self, other: "MuPoly") -> tuple["MuPoly", "MuPoly"]:
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        db, lb = other.degree, other.leading
        if len(rem) - 1 < db:
            return MU_POLY_ZERO, self
        quot = [GR_ZERO] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if not c:
                continue
            f = c / lb
            quot[k - db] = f
            for j, g in enumerate(other.coeffs):
                rem[k - db + j] = rem[k - db + j] - f * g
        return MuPoly.from_seq(quot), MuPoly.from_seq(rem)

    @staticmethod
    def gcd(a: "MuPoly", b: "MuPoly") -> "MuPoly":
        """Monic greatest common divisor (Euclid over the coefficient field)."""
        while b:
            a, b = b, a.divmod(b)[1]
        return a.monic() if a else MU_POLY_ONE

    def eval_zero(self) -> GaussRational:
        return self.coeffs[0] if self.coeffs else GR_ZERO

    @property
    def valuation(self) -> int | None:
        """Index of the lowest nonzero mu-power, or None for the zero polynomial."""
        for k, g in enumerate(self.coeffs):
            if g:
                return k
        return None

    def __str__(self):
        return format_mu_poly(self)

    def __repr__(self):
        return f"MuPoly({self.coeffs!r})"


MU_POLY_ZERO = MuPoly(())
MU_POLY_ONE = MuPoly((GR_ONE,))
MU_POLY_MU = MuPoly((GR_ZERO, GR_ONE))


def format_mu_poly(p: MuPoly) -> str:
    """Render descending in mu, e.g. '2*mu^2 - mu + 1/2'."""
    if not p:
        return "0"
    pieces = []
    for k in range(p.degree, -1, -1):
        g = p.coeffs[k]
        if not g:
            continue
        if k == 0:
            pieces.append(format_gauss(g))
            continue
        mu = "mu" if k == 1 else f"mu^{k}"
        if g == GR_ONE:
            pieces.append(mu)
        elif g == GaussRational(-1):
            pieces.append(f"-{mu}")
        else:
            gs = format_gauss(g)
            if "+" in gs[1:] or "-" in gs[1:]:
                gs = f"({gs})"
            pieces.append(f"{gs}*{mu}")
    return " + ".join(pieces).replace("+ -", "- ")


class Coefficient:
    """An element of Q(i)(mu) in canonical form: monic, coprime denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: MuPoly, den: MuPoly):
        # Callers must normalize; use the module constructors instead.
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def make(num: MuPoly, den: MuPoly) -> "Coefficient":
        """Build a coefficient in canonical form from a numerator/denominator pair."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return ZERO
        if den.is_one:
            return Coefficient(num, MU_POLY_ONE)
        if den.degree == 0:
            return Coefficient(num.scale(GR_ONE / den.coeffs[0]), MU_POLY_ONE)
        g = MuPoly.gcd(num, den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lc = den.leading
        if lc != GR_ONE:
            inv = GR_ONE / lc
            num = num.scale(inv)
            den = den.scale(inv)
        if den.is_one:
            den = MU_POLY_ONE
        return Coefficient(num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "Coefficient":
        if k == 0:
            return ZERO
        if k == 1:
            return ONE
        return Coefficient(MuPoly.const(GaussRational(k)), MU_POLY_ONE)

    @staticmethod
    def from_fraction(q) -> "Coefficient":
        q = Fraction(q)
        if not q:
            return ZERO
        return Coefficient(MuPoly.const(GaussRational(q)), MU_POLY_ONE)

    @staticmethod
    def from_gauss(re=0, im=0) -> "Coefficient":
        g = GaussRational(re, im)
        if not g:
            return ZERO
        return Coefficient(MuPoly.const(g), MU_POLY_ONE)

    @staticmethod
    def mu_power(k: int, scale=1) -> "Coefficient":
        """scale * mu^k for k >= 0."""
        g = GaussRational(scale) if not isinstance(scale, GaussRational) else scale
        if not g:
            return ZERO
        return Coefficient(MuPoly.from_seq([GR_ZERO] * k + [g]), MU_POLY_ONE)

    # -- arithmetic --------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, Coefficient):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            self._hash = h
        return h

    def __add__(self, other):
        if not other:
            return self
        if not self:
            return other
        if self.den.is_one and other.den.is_one:
            s = self.num + other.num
            return Coefficient(s, MU_POLY_ONE) if s else ZERO
        return Coefficient.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self:
            return self
        return Coefficient(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale_int(other)
        if not self or not other:
            return ZERO
        if self.den.is_one and other.den.is_one:
            return Coefficient(self.num * other.num, MU_POLY_ONE)
        return Coefficient.make(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def scale_int(self, k: int) -> "Coefficient":
        if k == 0 or not self:
            return ZERO
        if k == 1:
            return self
        return Coefficient(self.num.scale(GaussRational(k)), self.den)

    def scale_fraction(self, q: Fraction) -> "Coefficient":
        if not q or not self:
            return ZERO
        return Coefficient(self.num.scale(GaussRational(q)), self.den)

    def inverse(self) -> "Coefficient":
        if not self:
            raise ZeroDivisionError("inverting the zero coefficient")
        return Coefficient.make(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- queries -----------------------------------------------------------

    @property
    def is_mu_polynomial(self) -> bool:
        return self.den.is_one

    def eval_at_mu_zero(self) -> GaussRational:
        """Value at mu = 0; defined iff the denominator does not vanish there."""
        d0 = self.den.eval_zero()
        if not d0:
            raise PoleAtMuZeroError(f"pole at mu = 0 in coefficient {self}")
        return self.num.eval_zero() / d0

    def mu_valuation(self) -> int | None:
        """Order of vanishing at mu = 0 (negative at a pole); None for zero."""
        nv = self.num.valuation
        if nv is None:
            return None
        return nv - (self.den.valuation or 0)

    def mu_monomials(self) -> dict[int, GaussRational]:
        """Split a mu-polynomial coefficient by mu-power; requires denominator 1."""
        if not self.den.is_one:
            raise ValueError(f"coefficient {self} is not polynomial in mu")
        return {k: g for k, g in enumerate(self.num.coeffs) if g}

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        if self.den.is_one:
            return format_mu_poly(self.num)
        num = format_mu_poly(self.num)
        den = format_mu_poly(self.den)
        if _needs_parens(num):
            num = f"({num})"
        if _needs_parens(den) or den.startswith("-"):
            den = f"({den})"
        return f"{num}/{den}"

    def as_factor(self) -> str:
        """Render safely for use as a multiplicand in a larger expression."""
        s = str(self)
        if _needs_parens(s):
            return f"({s})"
        return s

    def __repr__(self):
        return f"Coefficient({self})"


def _needs_parens(s: str) -> bool:
    return "+" in s[1:] or "-" in s[1:] or " " in s


ZERO = Coefficient(MU_POLY_ZERO, MU_POLY_ONE)
ONE = Coefficient(MU_POLY_ONE, MU_POLY_ONE)
MINUS_ONE = Coefficient(MuPoly.const(GaussRational(-1)), MU_POLY_ONE)
I = Coefficient(MuPoly.const(GR_I), MU_POLY_ONE)
MU = Coefficient(MU_POLY_MU, MU_POLY_ONE)

_NEG_I_CYCLE = (
    ONE,
    Coefficient(MuPoly.const(GaussRational(0, -1)), MU_POLY_ONE),
    MINUS_ONE,
    I,
)


def neg_i_power(k: int) -> Coefficient:
    """(-i)^k, used by the sigma -> -i*d/dz substitution."""
    return _NEG_I_CYCLE[k % 4]
