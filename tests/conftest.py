"""Shared helpers: monomial enumeration, the degree guard read through
`check_degree`, seeded random algebra objects, the full sinh series of a
planted kernel, the bracket kernel of a product kernel, `substitute`, the
slot-map oracles, the per-call packed lifts, evaluation at a point of field
elements, the per-term accumulation oracles, the Jacobi verdict read off the
whole packed product, Jacobi block counts and the theorem2 path that builds
every low block, the centre check as a loop over test monomials, the
degreewise Theorem 2 fit, and the Coefficient exponential and dressed powers
that the packed fit is checked against."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import comb, factorial

from moyal import lie, scalars
from moyal.cocycle import dual_monomials
from moyal.errors import DegreeGuardError, PoleAtMuZeroError, SpaceMismatchError
from moyal.lie import RawLieKernel
from moyal.linalg import Matrix
from moyal.operators import NCPoly
from moyal.poly import (
    DiffOp,
    Lifted,
    Poly,
    block_product,
    check_degree,
    digit_width,
    divide_exact,
    exp_series,
    lift_scale,
    lift_slots,
    pair_space,
    phase_space,
    sigma_space,
    triple_space,
)
from moyal.star import BiDiff, StarKernel, coboundary, merge_slots, slot_degrees, swap_slots


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


def guard_bound():
    """The degree guard in force, read through `poly.check_degree` alone: the
    largest degree it lets through."""
    for degree in itertools.count():
        try:
            check_degree(degree + 1, "probe")
        except DegreeGuardError:
            return degree


def random_coefficient(rng: random.Random, mu_degree=1, allow_i=True):
    """A small random nonzero mu-polynomial coefficient."""
    while True:
        re, im = [0] * (mu_degree + 1), [0] * (mu_degree + 1)
        for k in range(mu_degree + 1):
            if rng.random() < 0.6:
                continue
            re[k] = rng.randint(-3, 3)
            if allow_i and rng.random() < 0.3:
                im[k] = rng.randint(-1, 1)
        total = scalars.Coefficient.from_ints(re, im, 1)
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


def sinh_series(mu_squared, count):
    """a1, a3, ... (count entries) of the h with h'(0) = 1 in the sinh class of
    `mu_squared`: a_{k+2} (k+1)(k+2) = mu_squared * a_k, the recurrence that
    `lie.classify_h` checks, run forwards."""
    series = [scalars.ONE]
    for k in range(1, 2 * count - 2, 2):
        series.append((mu_squared * series[-1]).scale_fraction(Fraction(1, (k + 1) * (k + 2))))
    return tuple(series)


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


def exp_truncated(p: Poly, max_degree: int) -> Poly:
    """exp(p) truncated at total degree max_degree, on Coefficients; p must
    have no constant term.  The series is `poly.exp_series` from 1 with the
    step t -> (t*p truncated at max_degree) / k, so it ends once the powers
    pass the bound: the oracle of the packed dressing of `lie._dressed_powers`."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    if p.constant_term():
        raise ValueError("exponent must have zero constant term")
    return exp_series(
        Poly.one(p.space), lambda t, k: (t * p).truncate_degree(max_degree).scale_fraction(Fraction(1, k))
    )


def oracle_dressed_powers(chi, w, top):
    """The list of `lie._dressed_powers(chi, w, top)` on Coefficients:
    exp(delta chi) through top - 2 times w, then times w^2 for each further
    odd power k with 2k <= top, each product truncated at top."""
    dressed = (exp_truncated(coboundary(chi), max(top - 2, 0)) * w).truncate_degree(top)
    out, w_squared = [dressed], w * w
    for _ in range(3, top // 2 + 1, 2):
        dressed = (dressed * w_squared).truncate_degree(top)
        out.append(dressed)
    return out


def bracket_kernel_of(kernel: StarKernel, truncation_degree: int) -> RawLieKernel:
    """The bracket kernel (exp(b) - swap) / (2 mu) of a product kernel, truncated."""
    eb = exp_truncated(kernel.exponent(), truncation_degree)
    commutator = eb - swap_slots(eb)
    return RawLieKernel(kernel.n, commutator.scale(scalars.HALF_INV_MU))


def reconstruct_bracket(table, f: Poly, g: Poly) -> Poly:
    """Evaluate the bracket of two n = 1 symbols from a coefficient table
    (`lie.bidiff_coefficients`).

    The table entries carry the binomial-times-derivative normalization, so
    the double series reads  sum b_{rj,sk}/(r! s!) (d^j_q d^(r-j)_p f)(...g).
    It is applied as BiDiff of the kernel whose u^(j, r-j) v^(k, s-k)
    coefficient is b_{rj,sk} / (r! s! (-i)^(r+s)).
    """
    if f.space != phase_space(1) or f.space != g.space:
        raise SpaceMismatchError("table reconstruction expects n = 1 symbols")
    kernel = Poly.from_terms(
        pair_space(1),
        (
            (
                (j, r - j, k, s - k),
                coeff.scale_fraction(Fraction(1, factorial(r) * factorial(s)))
                * scalars.neg_i_power(-(r + s)),
            )
            for (r, j, s, k), coeff in table.items()
        ),
    )
    return BiDiff(kernel).apply(f, g)


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


def oracle_slot_sum(p, target, *maps):
    """`star.slot_sum` on `Coefficient`s: each map reindexes the exponent
    tuples of p, expands every power of a sum of two blocks binomially, and
    scales each coefficient by the sign and the binomial multiple; all images
    meet in one `Poly.from_terms`."""
    images = []
    for sign, *slots in maps:
        width = len(p.space) // len(slots)
        blocks = "uvw"[: len(target) // width]
        targets = [
            tuple(blocks.index(block) * width + i for block in slot)
            for slot in slots
            for i in range(width)
        ]
        for exps, coeff in p.terms.items():
            base = [0] * len(target)
            sums = []
            for e, where in zip(exps, targets):
                if len(where) == 1:
                    base[where[0]] += e
                elif e:
                    sums.append((e, where))
            for split in itertools.product(*(range(e + 1) for e, _ in sums)):
                new = base[:]
                mult = sign
                for j, (e, (left, right)) in zip(split, sums):
                    new[left] += j
                    new[right] += e - j
                    mult *= comb(e, j)
                images.append((new, coeff.scale_int(mult)))
    return Poly.from_terms(target, images)


def slot_images(space, n, *slots):
    """The image of each slot variable under `slot_sum(p, space, (1, *slots))`."""
    return [
        sum((Poly.variable(space, f"{block}{i}") for block in slot), Poly.zero(space))
        for slot in slots
        for i in range(1, 2 * n + 1)
    ]


def oracle_lift_substitutions(p, target, maps, digit_bits=None):
    """The packed lift under linear substitutions, everything built on every
    call: `maps` holds (sign, where) with where[k] the one or two target
    indices whose sum replaces variable k of p, and the units, the
    placements and each term's binomial images are built here, as are the
    scale and norm.  A map that does not fit p raises SpaceMismatchError.
    `poly.lift_slots` compiles its slot maps into a table instead."""
    scale, norm = lift_scale(p)
    if digit_bits is None:
        signs = sum(abs(sign) for sign, _ in maps)
        digit_bits = digit_width(signs * norm << max(p.total_degree(), 0))
    width, bits = len(target), guard_bound().bit_length()
    units = [1 << 2 + width * bits | 1 << 2 + (width - 1 - k) * bits for k in range(width)]
    placed = []
    for sign, where in maps:
        if len(where) != len(p.space):
            raise SpaceMismatchError(f"a map of {len(where)} variables does not fit {p.space!r}")
        keys = [[units[index] for index in indices] for indices in where]
        steps = [(k, pair[0] - pair[1]) for k, pair in enumerate(keys) if len(pair) == 2]
        placed.append((sign, [pair[-1] for pair in keys], steps))
    terms = {}
    for exps, coeff in p.terms.items():
        num = coeff.num
        mult = scale // num.d
        re = im = 0
        for x in reversed(num.re):
            re = (re << digit_bits) + x * mult
        for y in reversed(num.im):
            im = (im << digit_bits) + y * mult
        for sign, weights, steps in placed:
            images = [(sum(map(int.__mul__, exps, weights)), sign)]
            for k, step in steps:
                e = exps[k]
                if e:
                    images = [(key + j * step, factor * comb(e, j)) for key, factor in images for j in range(e + 1)]
            for key, factor in images:
                if re:
                    terms[key] = terms.get(key, 0) + factor * re
                if im:
                    terms[key | 1] = terms.get(key | 1, 0) + factor * im
    terms = {key: value for key, value in terms.items() if value}
    return Lifted(terms, scale, scalars.MU_POLY_ONE, target, bits, digit_bits)


def oracle_lift_slots(p, target, maps, digit_bits=None):
    """`poly.lift_slots` without its tables: each slot map translated into
    target indices on every call, with the same error text for slots that
    do not cut p into the blocks of the target."""
    substitutions = []
    for sign, *slots in maps:
        n, rem = divmod(len(p.space), 2 * len(slots))
        if rem or not n or target not in (pair_space(n), triple_space(n)):
            raise SpaceMismatchError(f"{len(slots)} slots of {p.space!r} do not map into {target!r}")
        width = 2 * n
        blocks = "uvw"[: len(target) // width]
        where = [[blocks.index(block) * width + i for block in slot] for slot in slots for i in range(width)]
        substitutions.append((sign, where))
    return oracle_lift_substitutions(p, target, substitutions, digit_bits)


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


def oracle_evaluate(p, values):
    """p at a point with Coefficient coordinates, every term a product in the
    field."""
    assert len(values) == len(p.space)
    total = scalars.ZERO
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


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


def whole_lifted_product(x, y):
    """x * y for two packed forms, through `poly.block_product`: each form is
    one block, filed at its top degree (0 for the zero form), and the product
    is the block at the sum of the two."""
    top_x, top_y = (form.degrees()[1] if form.terms else 0 for form in (x, y))
    return block_product({top_x: x}, {top_y: y})(top_x + top_y)


S3 = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1), ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)]


def block_sum(p, perms):
    """The sum over (perm, sign) of sign times p with its three exponent blocks
    moved by perm: the block at position j of a term goes to perm[j]."""
    width = len(p.space) // 3
    items = []
    for exps, coeff in p.terms.items():
        blocks = [exps[k * width : (k + 1) * width] for k in range(3)]
        for perm, sign in perms:
            moved = [None] * 3
            for j, block in zip(perm, blocks):
                moved[j] = block
            items.append((sum(moved, ()), coeff if sign > 0 else -coeff))
    return Poly.from_terms(p.space, items)


def descending(exps, width):
    u, v, w = exps[:width], exps[width : 2 * width], exps[2 * width :]
    return u > v > w


def poly_fold(p, alternating):
    """The Poly-level fold of a triple-space p: the cyclic sum of its block
    rotations, or the alternating sum over S3 at the tuple of each orbit
    whose blocks descend (an orbit with two equal blocks sums to zero)."""
    if not alternating:
        return block_sum(p, S3[:3])
    folded = block_sum(p, S3)
    width = len(p.space) // 3
    return Poly(p.space, {e: c for e, c in folded.terms.items() if descending(e, width)})


def fold_situations(p, q, fold):
    """The hard cases for the stop rule of `poly.block_lead` that the folded
    product of two triple-space polynomials holds: "top vanishes", the top
    degree block is zero and a lower one is not; "two equal blocks", in some
    block the largest arrangement a pair of terms reaches has two equal
    blocks, so the alternating fold drops it; "cancelled candidate", in some
    block the largest tuple the fold files a pair at is not the block's
    lead."""
    width = len(p.space) // 3
    folded = poly_fold(p * q, fold == "alternating")
    by_degree = {}
    for e1 in p.terms:
        for e2 in q.terms:
            e = tuple(map(int.__add__, e1, e2))
            blocks = [e[k : k + width] for k in range(0, 3 * width, width)]
            if fold == "cyclic":
                images = [sum(blocks[k:] + blocks[:k], ()) for k in range(3)]
                reached, filed = max(images), images
            else:
                reached = sum(sorted(blocks, reverse=True), ())
                filed = [reached] if len(set(blocks)) == 3 else []
            by_degree.setdefault(sum(e), []).append((reached, filed))
    seen = set()
    if folded and not folded.homogeneous_component(max(by_degree, default=0)):
        seen.add("top vanishes")
    for degree, pairs in by_degree.items():
        block = folded.homogeneous_component(degree)
        reached = max(r for r, _ in pairs)
        if fold == "alternating" and len({reached[k : k + width] for k in range(0, 3 * width, width)}) < 3:
            seen.add("two equal blocks")
        candidates = [key for _, filed in pairs for key in filed]
        if candidates and max(candidates) != (block.leading_term()[0] if block else None):
            seen.add("cancelled candidate")
    return seen


def vanishes_at_mu_zero(p):
    """Whether every coefficient of p is zero at mu = 0; a pole there is not."""
    try:
        return not p.mu_zero()
    except PoleAtMuZeroError:
        return False


def whole_product_jacobi(raw, truncation_degree=None):
    """(status, witness, degree range) of the Jacobi defect, read off the
    whole packed product: both slot maps multiplied at once, unlifted and
    folded on Coefficients (`poly_fold`).  The slot maps and the digit width
    are those of `lie._defect_blocks`; `lie_axiom_check` reads the same
    defect one folded degree block at a time."""
    (a, den), tri = raw.a.split_denominator(), triple_space(raw.n)
    antisymmetric, width = raw.antisymmetry_witness is None, 2 * raw.n
    _, norm = lift_scale(a)
    digit_bits = digit_width(3 * norm * norm << max(a.total_degree(), 0))
    half = Poly(a.space, {e: c for e, c in a.terms.items() if e[:width] > e[width:]})
    left = lift_slots(a, tri, ((1, "u", "vw"),), digit_bits)
    right = lift_slots(half if antisymmetric else a, tri, ((1, "v", "w"),), digit_bits)
    defect = poly_fold(whole_lifted_product(left, right).over(den * den).unlift(), antisymmetric)
    if not defect.terms:
        return "exact", None, None
    degrees = (min(map(sum, defect.terms)), defect.total_degree())
    above = truncation_degree is not None and degrees[0] > truncation_degree + 2
    status = "truncation-defect" if vanishes_at_mu_zero(defect) or above else "violation"
    return status, defect.leading_term(), degrees


def counting_blocks(patch):
    """Count, in the returned dict, the whole Jacobi blocks `lie` builds (calls
    of the block function of `poly.block_product`) and the leads it reads
    (`poly.block_lead`); `patch` is a pytest monkeypatch."""
    counts = {"blocks": 0, "leads": 0}
    graded, read = lie.block_product, lie.block_lead

    def counting(left, right, fold=None):
        product = graded(left, right, fold)

        def block(degree):
            counts["blocks"] += 1
            return product(degree)

        return block

    def reading(*args):
        counts["leads"] += 1
        return read(*args)

    patch.setattr(lie, "block_product", counting)
    patch.setattr(lie, "block_lead", reading)
    return counts


def build_every_low_block(patch):
    """Make `theorem2_pipeline` build every Jacobi block at or below
    fit_degree + 2, as `lie_axiom_check` does: `lie._axiom_report` is told
    that the low blocks need not vanish.  `classify_h` is left alone, since
    the verdict reads it."""
    report = lie._axiom_report
    patch.setattr(
        lie, "_axiom_report",
        lambda raw, truncation_degree, low_blocks_vanish: report(raw, truncation_degree, False),
    )


def oracle_center_generators(raw, kernel_basis, max_degree, verify_degree):
    """(candidate, verified) per `lie.center_generators_from_kernel` candidate,
    verified as a loop over test monomials: the kernel applied to the
    candidate and each monomial of degree <= verify_degree, on both sides,
    must vanish."""
    tests = monomials(phase_space(raw.n), verify_degree)
    return [
        (cand, all(
            oracle_apply(raw.a, cand, g).is_zero and oracle_apply(raw.a, g, cand).is_zero
            for g in tests
        ))
        for cand in dual_monomials(raw.n, kernel_basis, max_degree)
    ]


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


def oracle_fit_structured(a, n, w, fit_degree):
    """`lie._fit_structured` as a degreewise loop: at each degree d, chi gains
    its degree-(d-2) part, dress * h(w) is rebuilt, and its degree-d residual
    is read."""
    width = 2 * n
    sig = sigma_space(n)
    chi = Poly.zero(sig)
    found = {1: scalars.ONE}
    a_cut = a.truncate_degree(fit_degree)
    w_powers = {1: w.truncate_degree(fit_degree)}
    for k in range(3, fit_degree // 2 + 1, 2):
        w_powers[k] = w_powers[k - 2] * w * w

    def series():
        return [found.get(k, scalars.ZERO) for k in range(1, max(found) + 1, 2)]

    def reconstruction():
        hw = Poly.zero(w.space)
        for power, coeff in found.items():
            hw = hw + w_powers[power].scale(coeff)
        dress = exp_truncated(coboundary(chi), fit_degree)
        return (dress * hw).truncate_degree(fit_degree)

    for d in range(3, fit_degree + 1):
        if d >= 4:
            part = {
                e: c for e, c in a_cut.homogeneous_component(d).terms.items()
                if slot_degrees(e, width) == (2, d - 2)
            }
            quotient, rem = divide_exact(Poly(w.space, part), w)
            if not rem.is_zero:
                return chi, series(), rem.leading_term()
            shifted = []
            for exps, coeff in quotient.terms.items():
                chi_exps = list(exps[width:])
                chi_exps[exps.index(1)] += 1
                shifted.append((chi_exps, -coeff))
            chi = chi + Poly.from_terms(sig, shifted).scale_fraction(Fraction(1, d - 2))
        residual = (a_cut - reconstruction()).homogeneous_component(d)
        if d >= 6 and d % 4 == 2:
            k = d // 2
            lead_exps, lead_coeff = w_powers[k].leading_term()
            ratio = residual.terms.get(lead_exps, scalars.ZERO) / lead_coeff
            residual = residual - w_powers[k].scale(ratio)
            if residual.is_zero:
                found[k] = ratio
        if not residual.is_zero:
            return chi, series(), residual.leading_term()
    final = (a_cut - reconstruction()).truncate_degree(fit_degree)
    return chi, series(), None if final.is_zero else final.leading_term()
