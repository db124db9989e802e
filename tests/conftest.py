"""Shared helpers: monomial enumeration, seeded random algebra objects, and
`substitute`, the slot-map oracle."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from moyal import scalars
from moyal.linalg import Matrix
from moyal.poly import Poly, pair_space, phase_space, sigma_space
from moyal.star import StarKernel


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
