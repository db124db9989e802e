"""Exact scalars: the field Q(i)(mu) of rational functions in a formal symbol mu.

Every scalar in this package is a quotient of two univariate polynomials in
the deformation symbol ``mu`` whose coefficients are Gaussian rationals
(a + b*i with a, b exact rationals).  Arithmetic is exact throughout; there
is no floating point anywhere in the package.

Representation.  A MuPoly stores Gaussian-integer numerators over one
positive int denominator,

    p = sum_k (re[k] + im[k]*i) * mu^k / d,

with re, im tuples of ints, constant term first.  Its invariants make the
representation of every value unique, so equality and hashing are
structural:

  * no trailing zero coefficient; the zero polynomial is re = im = (), d = 1;
  * im is () when every imaginary part is zero, else len(im) == len(re);
  * d > 0 and gcd(d, *re, *im) == 1 (the content is normalised).

Arithmetic works on the ints directly, with fast paths for d == 1 and for
real data (im == ()).  Gcds run Euclid over Q(i) with every remainder made
monic (multiply by conj(lc), divide by |lc|^2); removing only the integer
content of pseudo-remainders lets Gaussian coefficients grow exponentially.
Remainders and exact quotients come from one pseudo-division over Z[i],
`MuPoly._divide`.  For a monic b = B/bd the lc of B is bd, and the division
scales A by bd^m up front, m the number of quotient terms: at step t every
coefficient is then divisible by bd^(m - t), so dividing the leading
coefficient by bd is exact at every step, for any A.

Canonical form of a Coefficient: the denominator is monic in mu and coprime
to the numerator, so structural equality coincides with mathematical
equality and Coefficient values can be used as dictionary keys.  A
denominator equal to 1 is always the MU_POLY_ONE object.  Denominators
c*mu^k (the bracket's 1/(2 mu)) cancel by a shift instead of a gcd.

Normalising gcds run in Coefficient.make.  The polynomial loops of poly.py
(the bilinear walk `poly.bilinear`, which every product runs, and the
`DiffOp` series) do not add coefficients over different denominators: they
run on numerators cleared by `common_denominator` (one gcd per distinct
denominator) and `Coefficient.cleared`, and divide the output by the common
denominator with `Coefficient.over`, one make per term.  A polynomial
quotient whose numerator is polynomial in mu defers those makes until its
terms are read, and the next loop takes its numerator and denominator as
they are, so a chain of products makes each output coefficient once (see
poly.py, Denominators).  Scalar arithmetic outside those loops, such as `+`
on two rational coefficients, still normalises every result.

Coefficient is the one value type of the field.  Values come in through
`from_int`, `from_ints`, `make`, `scale_int`/`scale_fraction`, the module
constants and `expressions.parse_coefficient`, and go out through `mu_zero`,
`mu_components`, `mu_valuation` and `str`.  Only this module calls the trusted
constructors Coefficient(...) and MuPoly(...), so canonical form has one owner.

Physics dictionary, fixed once for the whole package: mu = i*hbar/2, so the
canonical commutator [q, p] = i*hbar reads 2*mu here.
"""

from __future__ import annotations

from math import gcd, log10
from operator import add, neg

from .errors import PoleAtMuZeroError


def _format_ratio(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{n // g}/{d // g}"


def _format_gauss(x: int, y: int, d: int) -> str:
    """Render (x + y*i)/d as 'a+b*i' (no parens), a and b in lowest terms."""
    re = _format_ratio(x, d)
    if not y:
        return re
    im = _format_ratio(y, d)
    im = "i" if im == "1" else "-i" if im == "-1" else f"{im}*i"
    if re == "0":
        return im
    return f"{re}{im}" if im.startswith("-") else f"{re}+{im}"


# -- integer helpers -----------------------------------------------------------


def _add_seq(a, b) -> list[int]:
    if len(a) == len(b):
        return list(map(add, a, b))
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, x in enumerate(b):
        out[k] += x
    return out


def _conv(a, b) -> list[int]:
    """Coefficients of the product of two int polynomials (constant first)."""
    if len(a) == 1:
        x = a[0]
        return [x * y for y in b]
    if len(b) == 1:
        y = b[0]
        return [x * y for x in a]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _normal(re, im, d: int) -> "MuPoly":
    """A MuPoly from int data with d > 0: strips trailing zeros and the content."""
    n = len(re)
    if im:
        while n and not (re[n - 1] or im[n - 1]):
            n -= 1
        if n < len(re):
            re, im = re[:n], im[:n]
        if not any(im):
            im = ()
    else:
        while n and not re[n - 1]:
            n -= 1
        if n < len(re):
            re = re[:n]
    if not n:
        return MU_POLY_ZERO
    return _reduced(re, im, d)


def _reduced(re, im, d: int) -> "MuPoly":
    """A MuPoly from int data without trailing zeros: divides out the content."""
    if d != 1:
        g = gcd(d, *re, *im)
        if g != 1:
            d //= g
            re = [x // g for x in re]
            if im:
                im = [x // g for x in im]
    return MuPoly(tuple(re), tuple(im), d)


class MuPoly:
    """A univariate polynomial in mu over the Gaussian rationals.

    Gaussian-integer numerators `re`, `im` (constant term first) over the
    positive int denominator `d`, normalised as the module docstring says.
    """

    __slots__ = ("re", "im", "d")

    def __init__(self, re: tuple[int, ...], im: tuple[int, ...] = (), d: int = 1):
        # Trusted constructor: the data must already be normalised.
        self.re = re
        self.im = im
        self.d = d

    @property
    def degree(self) -> int:
        """Degree in mu; the zero polynomial has degree -1."""
        return len(self.re) - 1

    def __bool__(self):
        return bool(self.re)

    @property
    def is_one(self) -> bool:
        return self.d == 1 and self.re == (1,) and not self.im

    def __eq__(self, other):
        if not isinstance(other, MuPoly):
            return NotImplemented
        return self.d == other.d and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im, self.d))

    def __add__(self, other):
        if not other.re:
            return self
        if not self.re:
            return other
        ar, ai, br, bi, d = self.re, self.im, other.re, other.im, self.d
        if d != other.d:
            g = gcd(d, other.d)
            ka, kb = other.d // g, d // g
            d *= ka
            if ka != 1:
                ar = [x * ka for x in ar]
                ai = [x * ka for x in ai]
            if kb != 1:
                br = [x * kb for x in br]
                bi = [x * kb for x in bi]
        if ai or bi:
            return _normal(
                _add_seq(ar, br),
                _add_seq(ai or [0] * len(ar), bi or [0] * len(br)),
                d,
            )
        return _normal(_add_seq(ar, br), (), d)

    def __neg__(self):
        return MuPoly(tuple(map(neg, self.re)), tuple(map(neg, self.im)), self.d)

    def __mul__(self, other):
        ar, br = self.re, other.re
        if not ar or not br:
            return MU_POLY_ZERO
        ai, bi = self.im, other.im
        re = _conv(ar, br)
        if not ai and not bi:
            im = ()
        elif not ai:
            im = _conv(ar, bi)
        elif not bi:
            im = _conv(ai, br)
        else:
            re = [x - y for x, y in zip(re, _conv(ai, bi))]
            im = _add_seq(_conv(ar, bi), _conv(ai, br))
            if not any(im):
                im = ()
        # A product of nonzero polynomials over Z[i] has no trailing zeros.
        return _reduced(re, im, self.d * other.d)

    def _scaled(self, k: int, m: int = 1) -> "MuPoly":
        """self * k / m for nonzero ints k and m > 0."""
        re = [x * k for x in self.re]
        im = [x * k for x in self.im] if self.im else ()
        return _reduced(re, im, self.d * m)

    def _div_gauss(self, lr: int, li: int, ld: int) -> "MuPoly":
        """self divided by the nonzero Gaussian rational (lr + li*i) / ld."""
        if not li:
            return self._scaled(ld, lr) if lr > 0 else self._scaled(-ld, -lr)
        # 1/(lr + li*i) = (lr - li*i) / (lr^2 + li^2)
        xr, xi = ld * lr, -ld * li
        im = self.im or (0,) * len(self.re)
        re = [a * xr - b * xi for a, b in zip(self.re, im)]
        im = [a * xi + b * xr for a, b in zip(self.re, im)]
        return _reduced(re, im if any(im) else (), self.d * (lr * lr + li * li))

    def _lc(self) -> tuple[int, int, int]:
        """The leading coefficient as (re, im, d)."""
        return self.re[-1], (self.im[-1] if self.im else 0), self.d

    def monic(self) -> "MuPoly":
        lr, li, d = self._lc()
        if lr == d and not li:
            return self
        return self._div_gauss(lr, li, d)

    def _divide(self, b: "MuPoly") -> tuple[list[int], list[int], list[int], list[int], int]:
        """(qr, qi, rr, ri, m) with A * bd^m = Q*B + R over Z[i], self = A/d, b = B/bd.

        b is monic, m = deg A - deg b + 1 >= 1, and R is rr, ri below deg b.
        """
        db = len(b.re) - 1
        n = len(self.re)
        m = n - db
        br, bd = b.re, b.d
        bi = b.im or (0,) * len(br)
        scale = bd**m
        rr = [x * scale for x in self.re]
        ri = [x * scale for x in self.im] if self.im else [0] * n
        qr, qi = [0] * m, [0] * m
        for k in range(n - 1, db - 1, -1):
            cr, ci = rr[k], ri[k]
            if not (cr or ci):
                continue
            s = k - db
            cr, ci = cr // bd, ci // bd
            qr[s], qi[s] = cr, ci
            for j in range(db):
                x, y = br[j], bi[j]
                rr[s + j] -= cr * x - ci * y
                ri[s + j] -= cr * y + ci * x
        return qr, qi, rr, ri, m

    def _rem(self, b: "MuPoly") -> "MuPoly":
        """Remainder of self modulo the monic polynomial b."""
        db = len(b.re) - 1
        if len(self.re) <= db:
            return self
        if not db:
            return MU_POLY_ZERO
        _, _, rr, ri, m = self._divide(b)
        return _normal(rr[:db], ri[:db], self.d * b.d**m)

    def _exact_quo(self, b: "MuPoly") -> "MuPoly":
        """self / b for a monic b that divides self."""
        if len(b.re) == 1:
            return self
        qr, qi, _, _, m = self._divide(b)
        # self = A/d and b = B/bd with A * bd^m = Q * B: self/b = Q / (d * bd^(m-1)).
        return _normal(qr, qi, self.d * b.d ** (m - 1))

    @staticmethod
    def gcd(a: "MuPoly", b: "MuPoly") -> "MuPoly":
        """Monic greatest common divisor (Euclid over Q(i), monic remainders)."""
        if not b.re:
            return a.monic() if a.re else MU_POLY_ONE
        b = b.monic()
        while True:
            r = a._rem(b)
            if not r.re:
                return b
            a, b = b, r.monic()

    @property
    def valuation(self) -> int | None:
        """Index of the lowest nonzero mu-power, or None for the zero polynomial."""
        im = self.im
        for k, x in enumerate(self.re):
            if x or (im and im[k]):
                return k
        return None

    def _shift_down(self, j: int) -> "MuPoly":
        """self / mu^j for j at most the valuation."""
        return MuPoly(self.re[j:], self.im[j:], self.d) if j else self

    def __str__(self):
        return format_mu_poly(self)

    def __repr__(self):
        return f"MuPoly({self.re!r}, {self.im!r}, {self.d!r})"


MU_POLY_ZERO = MuPoly(())
MU_POLY_ONE = MuPoly((1,))
MU_POLY_MU = MuPoly((0, 1))


def format_mu_poly(p: MuPoly) -> str:
    """Render descending in mu, e.g. '2*mu^2 - mu + 1/2'."""
    if not p.re:
        return "0"
    d, im = p.d, p.im
    pieces = []
    for k in range(p.degree, -1, -1):
        x, y = p.re[k], (im[k] if im else 0)
        if not (x or y):
            continue
        gs = _format_gauss(x, y, d)
        if k == 0:
            pieces.append(gs)
            continue
        mu = "mu" if k == 1 else f"mu^{k}"
        if gs == "1":
            pieces.append(mu)
        elif gs == "-1":
            pieces.append(f"-{mu}")
        else:
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
        if not den.re:
            raise ZeroDivisionError("zero denominator")
        if not num.re:
            return ZERO
        if den.is_one:
            return Coefficient(num, MU_POLY_ONE)
        k = den.degree
        if den.valuation == k:
            # den = c*mu^k: cancel the common power of mu, divide by c.
            j = min(k, num.valuation)
            num = num._shift_down(j)._div_gauss(*den._lc())
            return Coefficient(num, MuPoly((0,) * (k - j) + (1,)) if j < k else MU_POLY_ONE)
        g = MuPoly.gcd(num, den)
        if g.degree > 0:
            num = num._exact_quo(g)
            den = den._exact_quo(g)
        lr, li, ld = den._lc()
        if li or lr != ld:
            num = num._div_gauss(lr, li, ld)
            den = den._div_gauss(lr, li, ld)
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
        return Coefficient(MuPoly((k,)), MU_POLY_ONE)

    @staticmethod
    def from_ints(re, im, d: int) -> "Coefficient":
        """sum_k (re[k] + im[k]*i) * mu^k / d from int sequences, constant first.

        `im` is empty or as long as `re`, and d > 0.
        """
        num = _normal(list(re), list(im), d)
        return Coefficient(num, MU_POLY_ONE) if num.re else ZERO

    # -- arithmetic --------------------------------------------------------

    def __bool__(self):
        return bool(self.num.re)

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
        if not other.num.re:
            return self
        if not self.num.re:
            return other
        sd, od = self.den, other.den
        if sd is MU_POLY_ONE and od is MU_POLY_ONE:
            s = self.num + other.num
            return Coefficient(s, MU_POLY_ONE) if s.re else ZERO
        if sd == od:
            return Coefficient.make(self.num + other.num, sd)
        return Coefficient.make(self.num * od + other.num * sd, sd * od)

    def __sub__(self, other):
        # A zero operand builds nothing, as in __add__.
        if not other.num.re:
            return self
        if not self.num.re:
            return -other
        return self + (-other)

    def __neg__(self):
        if not self.num.re:
            return self
        return Coefficient(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):  # c * k, as in the benchmark's MU * 2
            return self.scale_int(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        if not self.num.re or not other.num.re:
            return ZERO
        if self.den is MU_POLY_ONE and other.den is MU_POLY_ONE:
            return Coefficient(self.num * other.num, MU_POLY_ONE)
        return Coefficient.make(self.num * other.num, self.den * other.den)

    def scale_int(self, k: int) -> "Coefficient":
        if k == 0 or not self.num.re:
            return ZERO
        if k == 1:
            return self
        return Coefficient(self.num._scaled(k), self.den)

    def scale_fraction(self, q: Fraction) -> "Coefficient":
        if not q or not self.num.re:
            return ZERO
        return Coefficient(self.num._scaled(q.numerator, q.denominator), self.den)

    def cleared(self, den: MuPoly) -> "Coefficient":
        """self * den, a polynomial in mu; den must be a monic multiple of self.den."""
        return Coefficient(self.num * den._exact_quo(self.den), MU_POLY_ONE)

    def over(self, den: MuPoly) -> "Coefficient":
        """self / den in canonical form, for a nonzero polynomial den."""
        return Coefficient.make(self.num, den if self.den is MU_POLY_ONE else self.den * den)

    def inverse(self) -> "Coefficient":
        if not self.num.re:
            raise ZeroDivisionError("inverting the zero coefficient")
        return Coefficient.make(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, ONE)

    # -- queries -----------------------------------------------------------

    def mu_zero(self) -> "Coefficient":
        """Value at mu = 0; defined iff the denominator does not vanish there."""
        den = self.den
        d0r, d0i = den.re[0], (den.im[0] if den.im else 0)
        if not (d0r or d0i):
            raise PoleAtMuZeroError(f"pole at mu = 0 in coefficient {self}")
        num = self.num
        n0 = _normal(num.re[:1], num.im[:1], num.d)
        if not n0.re:
            return ZERO
        return Coefficient(n0._div_gauss(d0r, d0i, den.d), MU_POLY_ONE)

    def mu_valuation(self) -> int | None:
        """Order of vanishing at mu = 0 (negative at a pole); None for zero."""
        nv = self.num.valuation
        if nv is None:
            return None
        return nv - (self.den.valuation or 0)

    def power_digits(self, k: int) -> float:
        """A lower bound on log10 of the largest int that str(self**k) prints.

        The numerator of self**k leads with g**k, g = (x + y*i)/d the lead of
        self's (the denominator is monic).  Real g prints x**k and d**k; else a
        part of g**k is at least |g|**k/sqrt(2) or has denominator at least
        |g|**-k, and odd(d)**k divides the product of the parts' denominators.
        """
        x, y, d = self.num._lc()
        h = gcd(x, y, d)
        x, y, d = x // h, y // h, d // h
        if not y:
            return k * log10(max(abs(x), d))
        odd = d >> ((d & -d).bit_length() - 1)
        return max(k * abs(log10(x * x + y * y) / 2 - log10(d)) - 0.16, k * log10(odd) / 2)

    def mu_components(self) -> dict[int, "Coefficient"]:
        """Split a mu-polynomial coefficient by mu-power; requires denominator 1."""
        if not self.den.is_one:
            raise ValueError(f"coefficient {self} is not polynomial in mu")
        num = self.num
        im = num.im or (0,) * len(num.re)
        return {
            k: Coefficient(_reduced((x,), (y,) if y else (), num.d), MU_POLY_ONE)
            for k, (x, y) in enumerate(zip(num.re, im))
            if x or y
        }

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
MINUS_ONE = Coefficient(MuPoly((-1,)), MU_POLY_ONE)
I = Coefficient(MuPoly((0,), (1,)), MU_POLY_ONE)
MU = Coefficient(MU_POLY_MU, MU_POLY_ONE)
HALF_INV_MU = MU.scale_int(2).inverse()

_NEG_I_CYCLE = (ONE, Coefficient(MuPoly((0,), (-1,)), MU_POLY_ONE), MINUS_ONE, I)


def common_denominator(coeffs) -> MuPoly:
    """The monic lcm of the denominators of `coeffs`; MU_POLY_ONE when every one is 1."""
    out = MU_POLY_ONE
    for den in {c.den for c in coeffs if c.den is not MU_POLY_ONE}:
        out = den if out is MU_POLY_ONE else out * den._exact_quo(MuPoly.gcd(out, den))
    return out


def binary_power(base, k: int, one):
    """base**k for an int k >= 0 by repeated squaring; `one` is the identity of `*`."""
    out = one
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def neg_i_power(k: int) -> Coefficient:
    """(-i)^k, used by the sigma -> -i d/dz substitution."""
    return _NEG_I_CYCLE[k % 4]
