"""Shared helpers: monomial enumeration, seeded random algebra objects,
`substitute`, the slot-map oracle, and the per-term accumulation oracles."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import comb, factorial

from moyal import scalars
from moyal.linalg import Matrix
from moyal.operators import NCPoly
from moyal.poly import DiffOp, Poly, pair_space, phase_space, sigma_space
from moyal.star import StarKernel, merge_slots


def monomials(space, max_total_degree):
    """All monomials over `space` of total degree <= max_total_degree."""
    width = len(space)
    out = []
    for exps in itertools.product(range(max_total_degree + 1), repeat=width):
        if sum(exps) <= max_total_degree:
            out.append(Poly.monomial(space, exps))
    return out


def monomial_tuples(space, count, max_sum_degree):
    """All `count`-tuples of monomials whose degrees sum to <= max_sum_degree.

    The order is that of itertools.product over the exponent tuples of total
    degree <= max_sum_degree; branches that exceed the degree budget are cut
    instead of being generated and filtered.
    """
    singles = [
        (exps, sum(exps))
        for exps in itertools.product(range(max_sum_degree + 1), repeat=len(space))
        if sum(exps) <= max_sum_degree
    ]
    for combo in _within_budget(singles, count, max_sum_degree):
        yield tuple(Poly.monomial(space, e) for e in combo)


def _within_budget(singles, count, budget):
    if count == 0:
        yield ()
        return
    for exps, degree in singles:
        if degree <= budget:
            for rest in _within_budget(singles, count - 1, budget - degree):
                yield (exps,) + rest


def random_coefficient(rng: random.Random, mu_degree=1, allow_i=True):
    """A small random nonzero mu-polynomial coefficient."""
    while True:
        total = scalars.ZERO
        for k in range(mu_degree + 1):
            if rng.random() < 0.6:
                continue
            re = Fraction(rng.randint(-3, 3))
            im = Fraction(rng.randint(-1, 1)) if allow_i and rng.random() < 0.3 else Fraction(0)
            if re or im:
                total = total + scalars.Coefficient.mu_power(
                    k, scalars.GaussRational(re, im)
                )
        if total:
            return total


def random_poly(rng: random.Random, space, max_degree, terms=3, **kw):
    """A random sparse polynomial with small coefficients."""
    width = len(space)
    out = Poly.zero(space)
    for _ in range(terms):
        exps = [0] * width
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(width)] += 1
        out = out + Poly.monomial(space, tuple(exps), random_coefficient(rng, **kw))
    return out


def random_gauge_chi(rng: random.Random, n, max_degree, terms=3, **kw):
    """A random chi on sigma space with no constant and no linear part."""
    width = 2 * n
    sp = sigma_space(n)
    out = Poly.zero(sp)
    for _ in range(terms):
        degree = rng.randint(2, max(2, max_degree))
        exps = [0] * width
        for _ in range(degree):
            exps[rng.randrange(width)] += 1
        out = out + Poly.monomial(sp, tuple(exps), random_coefficient(rng, **kw))
    return out


def random_antisymmetric(rng: random.Random, size, **kw):
    """A random antisymmetric matrix with small mu-polynomial entries."""
    rows = [[scalars.ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.7:
                c = random_coefficient(rng, **kw)
                rows[i][j] = c
                rows[j][i] = -c
    return Matrix(rows)


def dressed_kernel(rng: random.Random, n, m=None):
    """chi of degree 2-3 with mu and i, and M (a random antisymmetric one by default)."""
    chi = random_gauge_chi(rng, n, 3, terms=2, mu_degree=1, allow_i=True)
    return StarKernel(n, chi, random_antisymmetric(rng, 2 * n) if m is None else m)


def operand(rng: random.Random, n, max_degree):
    """A multi-term phase-space polynomial over a mu-dependent denominator."""
    f = random_poly(rng, phase_space(n), max_degree, terms=3)
    denominator = scalars.MU + scalars.Coefficient.from_int(rng.randint(1, 3))
    return f.scale(denominator.inverse())


def substitute(p, images, space):
    """p with variable k replaced by images[k]; all images live over `space`.

    Literal polynomial substitution by repeated multiplication, kept as the
    oracle for the binomial slot maps in `moyal.star`.
    """
    if len(images) != len(p.space):
        raise ValueError("one image polynomial per variable is required")
    out = Poly.zero(space)
    power_cache = {}
    for exps, coeff in p.terms.items():
        term = Poly.constant(space, coeff)
        for k, e in enumerate(exps):
            if not e:
                continue
            pw = power_cache.get((k, e))
            if pw is None:
                pw = power_cache[k, e] = images[k] ** e
            term = term * pw
        out = out + term
    return out


def slot_images(space, n, *slots):
    """The image of each slot variable under `on_slots(p, space, *slots)`."""
    return [
        sum((Poly.variable(space, f"{block}{i}") for block in slot), Poly.zero(space))
        for slot in slots
        for i in range(1, 2 * n + 1)
    ]


# -- per-term accumulation oracles ---------------------------------------------
#
# The polynomial loops clear mu-denominators on entry and divide once per
# output term.  These oracles keep the earlier form: every product of two
# coefficients is added into the result at once, whatever its denominator.


def accumulate(space, items):
    """The Poly summing (exponents, coefficient) items one at a time."""
    terms = {}
    for exps, coeff in items:
        acc = terms.get(exps)
        coeff = coeff if acc is None else acc + coeff
        if coeff:
            terms[exps] = coeff
        else:
            terms.pop(exps, None)
    return Poly(space, terms)


def oracle_mul(f, g):
    return accumulate(
        f.space,
        (
            (tuple(map(int.__add__, e1, e2)), c1 * c2)
            for e1, c1 in f.terms.items()
            for e2, c2 in g.terms.items()
        ),
    )


def oracle_apply_once(op, target):
    """One pass of the DiffOp `op` over `target`."""

    def items():
        for d_exps, d_coeff in op.poly.terms.items():
            for t_exps, t_coeff in target.terms.items():
                if all(t >= d for t, d in zip(t_exps, d_exps)):
                    factor = math.prod(math.perm(t, d) for t, d in zip(t_exps, d_exps))
                    exps = tuple(t - d for t, d in zip(t_exps, d_exps))
                    yield exps, (d_coeff * t_coeff).scale_int(factor)

    return accumulate(target.space, items())


def oracle_apply_exp(op, target):
    result = term = target
    k = 1
    while term.terms:
        term = oracle_apply_once(op, term).scale_fraction(Fraction(1, k))
        result = result + term
        k += 1
    return result


def _oracle_pieces(f, g, piece):
    """Sum of piece(ef, eg) * cf * cg over the terms of f and g, per term."""
    return accumulate(
        f.space,
        (
            (exps, coeff * (cf * cg))
            for ef, cf in f.terms.items()
            for eg, cg in g.terms.items()
            for exps, coeff in piece(ef, eg).terms.items()
        ),
    )


def _oracle_exp_piece(kernel, space):
    """(ef, eg) -> exp(b) applied to the monomial ef (x) eg, slots merged."""
    b = kernel.exponent()
    op = DiffOp.from_sigma_poly(b)
    return lambda ef, eg: merge_slots(oracle_apply_exp(op, Poly.monomial(b.space, ef + eg)), space)


def oracle_star(f, g, kernel):
    return _oracle_pieces(f, g, _oracle_exp_piece(kernel, f.space))


def oracle_bracket(f, g, kernel):
    exp_piece = _oracle_exp_piece(kernel, f.space)
    return _oracle_pieces(
        f, g, lambda ef, eg: (exp_piece(ef, eg) - exp_piece(eg, ef)).scale(scalars.HALF_INV_MU)
    )


def oracle_apply(a, f, g):
    """A(-i d_left, -i d_right) applied once to f (x) g, slots merged."""
    tensor = Poly(
        a.space,
        {ef + eg: cf * cg for ef, cf in f.terms.items() for eg, cg in g.terms.items()},
    )
    return merge_slots(oracle_apply_once(DiffOp.from_sigma_poly(a), tensor), f.space)


def oracle_u_map(f, chi):
    return oracle_apply_exp(DiffOp.from_sigma_poly(Poly(f.space, dict(chi.terms))), f)


def _oracle_transition(n, sign):
    terms = {}
    for i in range(n):
        exps = [0] * (2 * n)
        exps[i] = exps[n + i] = 1
        terms[tuple(exps)] = scalars.MU.scale_int(sign)
    return DiffOp(Poly(phase_space(n), terms))


def oracle_weyl_quantize(f):
    n = len(f.space) // 2
    return NCPoly(n, dict(oracle_apply_exp(_oracle_transition(n, -1), f).terms))


def oracle_weyl_symbol(x):
    raw = Poly(phase_space(x.n), dict(x.terms))
    return oracle_apply_exp(_oracle_transition(x.n, +1), raw)


def _oracle_word_product(n, w1, w2, coeff):
    a, b = w1[:n], w1[n:]
    c, d = w2[:n], w2[n:]
    minus_two_mu = scalars.MU.scale_int(-2)
    pieces = [((), scalars.ONE)]
    for bi, ci in zip(b, c):
        pieces = [
            (js + (j,), cf * (minus_two_mu**j).scale_int(comb(bi, j) * comb(ci, j) * factorial(j)))
            for js, cf in pieces
            for j in range(min(bi, ci) + 1)
        ]
    for js, cf in pieces:
        word = tuple(a[i] + c[i] - js[i] for i in range(n)) + tuple(
            b[i] + d[i] - js[i] for i in range(n)
        )
        yield word, cf * coeff


def oracle_nc_mul(x, y):
    n = x.n
    product = accumulate(
        x.poly.space,
        (
            piece
            for w1, c1 in x.terms.items()
            for w2, c2 in y.terms.items()
            for piece in _oracle_word_product(n, w1, w2, c1 * c2)
        ),
    )
    return NCPoly(n, product.terms)
