"""Seeded inputs and operations for the four workloads.

`BUILDERS[workload](seed)` returns the operations of one round.  Building
them is the set-up; running them is the timed pass.  Every operation returns its
outputs and carries the check that judges them (see checks.py).  The same
seed always gives the same operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from moyal import cli, scalars
from moyal.cocycle import RawKernelExponent, cocycle_check, factorize
from moyal.expressions import parse_coefficient, parse_poly
from moyal.lie import RawLieKernel, StructuredLieKernel, theorem2_pipeline
from moyal.linalg import Matrix
from moyal.operators import nc_mul, weyl_quantize, weyl_symbol
from moyal.poly import Poly, pair_space, phase_space, sigma_space
from moyal.star import StarKernel, bilinear_pair_poly, bracket, coboundary, star, u_map

import checks

Coefficient = scalars.Coefficient
MU = scalars.MU
ONE = scalars.ONE
ZERO = scalars.ZERO

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT = 60


class OpFailed(Exception):
    """The operation did not complete (as opposed to completing wrongly)."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


# -- seeded building blocks -----------------------------------------------------


def small_coefficient(rng: random.Random, mu: bool = True, gauss: bool = False) -> Coefficient:
    """a (+ b*mu) (+ i) with small nonzero integers a, b.  Whether the mu and i
    parts are present is fixed by the caller, not drawn, so that the cost of
    an input depends on its seed as little as possible."""
    c = Coefficient.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))
    if mu:
        c = c + MU.scale_int(rng.choice((-1, 1)))
    if gauss:
        c = c + scalars.I
    return c


def random_exponents(rng: random.Random, width: int, degree: int) -> tuple[int, ...]:
    exps = [0] * width
    for _ in range(degree):
        exps[rng.randrange(width)] += 1
    return tuple(exps)


def relabelling(rng: random.Random, n: int) -> list[int]:
    """A random symmetry of phase space: permute the conjugate pairs and swap
    q_i with p_i in some of them.  Index k of a shape goes to index out[k]."""
    order = rng.sample(range(n), n)
    out = [0] * (2 * n)
    for i, j in enumerate(order):
        q, p = (n + j, j) if rng.random() < 0.5 else (j, n + j)
        out[i], out[n + i] = q, p
    return out


def relabel(exps: tuple[int, ...], target: list[int]) -> tuple[int, ...]:
    out = [0] * len(exps)
    for k, e in enumerate(exps):
        out[target[k]] += e
    return tuple(out)


def shaped_chi(rng: random.Random, n: int, shapes, target=None, **kw) -> Poly:
    """chi on sigma space: the given exponent shapes (degree >= 2) under a random
    relabelling, with small random coefficients."""
    target = relabelling(rng, n) if target is None else target
    terms = {relabel(s, target): small_coefficient(rng, **kw) for s in shapes}
    return Poly(sigma_space(n), terms)


def gauge_chi(rng: random.Random, n: int, degrees=(2, 3), **kw) -> Poly:
    """chi on sigma space with one random term of each given degree."""
    terms = {random_exponents(rng, 2 * n, d): small_coefficient(rng, **kw) for d in degrees}
    return Poly(sigma_space(n), terms)


def antisymmetric(rng: random.Random, size: int, **kw) -> Matrix:
    rows = [[ZERO] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            c = small_coefficient(rng, **kw)
            rows[i][j] = c
            rows[j][i] = -c
    return Matrix(rows)


def monomial_triples(n: int, max_degree: int):
    """Every triple of phase-space monomials whose degrees sum to <= max_degree."""
    space = phase_space(n)
    singles = [
        e for e in itertools.product(range(max_degree + 1), repeat=2 * n) if sum(e) <= max_degree
    ]
    monos = {e: Poly.monomial(space, e) for e in singles}
    for combo in itertools.product(singles, repeat=3):
        if sum(map(sum, combo)) <= max_degree:
            yield tuple(monos[e] for e in combo)


# -- products -------------------------------------------------------------------

PRODUCT_KERNELS = 20
# chi shapes cycled over the kernels, so every round has the same mix.
PRODUCT_CHI_SHAPES = {
    1: (((2, 0), (2, 1)), ((1, 1), (3, 0)), ((2, 0), (1, 2))),
    2: (((1, 0, 0, 1), (2, 0, 1, 0)), ((2, 0, 0, 0), (1, 1, 1, 0))),
}


def _associativity_sides(f, g, h, kernel):
    return star(star(f, g, kernel), h, kernel), star(f, star(g, h, kernel), kernel)


def _bracket_sides(f, g, h, kernel, constant):
    fg = bracket(f, g, kernel)
    jacobi = (
        bracket(f, bracket(g, h, kernel), kernel)
        + bracket(g, bracket(h, f, kernel), kernel)
        + bracket(h, fg, kernel)
    )
    return jacobi, fg, bracket(g, f, kernel), bracket(f, constant, kernel)


def _sides_associative(sides):
    return checks.associativity(*sides)


def _sides_lie(sides):
    return checks.bracket_axioms(*sides)


def build_products(seed: int) -> list[Op]:
    """20 kernels, every fifth with n = 2.  Per kernel: an associativity op on
    every monomial triple of degree sum <= 4 (n = 1) or <= 3 (n = 2), and a
    Jacobi op (also checking antisymmetry and constants) on every triple of
    degree sum one lower."""
    rng = random.Random(f"products-{seed}")
    ops = []
    for k in range(PRODUCT_KERNELS):
        n = 2 if k % 5 == 4 else 1
        shapes = PRODUCT_CHI_SHAPES[n][k % len(PRODUCT_CHI_SHAPES[n])]
        kernel = StarKernel(n, shaped_chi(rng, n, shapes, gauss=True), antisymmetric(rng, 2 * n))
        constant = Poly.constant(phase_space(n), small_coefficient(rng, gauss=True))
        max_degree = 4 if n == 1 else 3
        for f, g, h in monomial_triples(n, max_degree):
            ops.append(Op("assoc", partial(_associativity_sides, f, g, h, kernel), _sides_associative))
        for f, g, h in monomial_triples(n, max_degree - 1):
            ops.append(Op("jacobi", partial(_bracket_sides, f, g, h, kernel, constant), _sides_lie))
    return ops


# -- dense_products ---------------------------------------------------------------

DENSE_OPS = 24
# Operand shapes (degrees 0, 1, 2, 3, 3, 4) and the chi shape; each op places
# all three by one random relabelling.  Terms 2 and 4 of an operand carry a
# mu-denominator, chosen by op index so that every round has the same mix.
DENSE_SHAPES = {
    1: (
        ((0, 0), (1, 0), (1, 1), (2, 1), (0, 3), (3, 1)),
        ((0, 0), (0, 1), (2, 0), (1, 2), (3, 0), (2, 2)),
        ((2, 0),),
    ),
    2: (
        ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1), (0, 2, 0, 1), (1, 1, 1, 1)),
        ((0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1), (2, 0, 0, 1), (0, 1, 0, 2), (1, 0, 2, 1)),
        ((1, 0, 0, 1),),
    ),
}
DENOMINATORS = ("mu + 1", "mu - 1", "mu + 2", "2*mu + 1", "mu^2 + 1")


def dense_operand(rng: random.Random, n: int, shapes, target, denominator: Coefficient) -> Poly:
    """Terms 2 and 4 get an integer times the denominator, which never cancels
    (a + b*mu could, and would make that op much cheaper than the others)."""
    terms = {}
    for idx, shape in enumerate(shapes):
        if idx in (2, 4):
            c = small_coefficient(rng, mu=False) * denominator
        else:
            c = small_coefficient(rng)
        terms[relabel(shape, target)] = c
    return Poly(phase_space(n), terms)


def _two_routes(f, g, kernel):
    chi = kernel.chi
    via_star = u_map(star(f, g, kernel), chi)
    via_weyl = weyl_symbol(nc_mul(weyl_quantize(u_map(f, chi)), weyl_quantize(u_map(g, chi))))
    return via_star, via_weyl


def _routes_agree(routes):
    return checks.routes_agree(*routes)


def build_dense_products(seed: int) -> list[Op]:
    """24 ops alternating n = 1 and n = 2, each with a fresh dressed kernel (chi, mu*J)."""
    rng = random.Random(f"dense_products-{seed}")
    inverses = [parse_coefficient(f"1/({d})") for d in DENOMINATORS]
    ops = []
    for k in range(DENSE_OPS):
        n = 1 + k % 2
        f_shapes, g_shapes, (chi_shape,) = DENSE_SHAPES[n]
        target = relabelling(rng, n)
        # The chi coefficient's size grows with k, so no kernel repeats in a
        # round and star's per-kernel caches never hit across ops.
        scale = Coefficient.from_int(rng.choice((-1, 1)) * (k // 2 + 1))
        chi = Poly(sigma_space(n), {relabel(chi_shape, target): scale + MU.scale_int(rng.choice((-1, 1)))})
        kernel = StarKernel(n, chi, Matrix.canonical_symplectic(n, MU))
        f = dense_operand(rng, n, f_shapes, target, inverses[k // 2 % len(inverses)])
        g = dense_operand(rng, n, g_shapes, target, inverses[(k // 2 + 2) % len(inverses)])
        ops.append(Op("routes", partial(_two_routes, f, g, kernel), _routes_agree))
    return ops


# -- classify -----------------------------------------------------------------------

CENTER_DEGREE = 2
VERIFY_DEGREE = 3
A3_PLAIN = ("1/6", "3/2", "1/2", "2/3")
A3_MU2 = ("mu^2/6", "2*mu^2", "mu^2/2", "3*mu^2/2")

# One round: (kind, n, fit degree, series class, chi shapes, mu in chi, a3
# choices).  Every fifth Lie kernel is degenerate; two non-kernels are mixed in.
CLASSIFY_SLOTS = (
    ("kernel", 1, 6, "sinh", ((2, 0), (2, 1)), True, A3_MU2),
    ("kernel", 1, 6, "linear", ((2, 0), (2, 1)), True, None),
    ("kernel", 2, 6, "sinh", ((2, 0, 0, 0),), False, A3_PLAIN),
    ("kernel", 2, 6, "linear", ((1, 0, 0, 1), (2, 0, 1, 0)), False, None),
    ("degenerate", 2, 6, "linear", ((2, 0, 0, 0),), True, None),
    ("kernel", 1, 8, "sinh", ((2, 0), (2, 1)), False, A3_PLAIN),
    ("kernel", 1, 8, "linear", ((2, 0), (1, 2)), False, None),
    ("kernel", 3, 6, "linear", ((2, 0, 0, 0, 0, 0),), True, None),
    ("nonkernel", 1, 6, "sinh", ((2, 0), (2, 1)), True, A3_PLAIN),
    ("kernel", 2, 6, "linear", ((2, 0, 0, 0),), True, None),
    ("degenerate", 2, 6, "sinh", ((2, 0, 0, 0),), False, A3_MU2),
    ("nonkernel", 2, 6, "linear", ((2, 0, 0, 0),), True, None),
)
# 12 + 4 + 5 = 21 ops: with an odd count the median op of a run is always
# the same slot, not the mean of two neighbouring slots.
FACTORIZE_CASES = 4
NONCOCYCLE_CASES = 5


def _nondegenerate_omega(rng: random.Random, n: int) -> Matrix:
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        lam = Coefficient.from_int(rng.choice((1, -1, 2, 3)))
        rows[i][n + i] = lam
        rows[n + i][i] = -lam
    return Matrix(rows)


def _degenerate_omega(rng: random.Random, target: list[int]) -> tuple[Matrix, list[int]]:
    """n = 2 omega coupling only the conjugate pair placed at target[0], target[2];
    returns it with the kernel coordinates (the other pair)."""
    i, j = target[0], target[2]
    lam = Coefficient.from_int(rng.choice((1, -1, 2, 3)))
    rows = [[ZERO] * 4 for _ in range(4)]
    rows[i][j] = lam
    rows[j][i] = -lam
    return Matrix(rows), sorted((target[1], target[3]))


def _dual_monomials(n: int, coords: list[int], max_degree: int) -> frozenset:
    space = phase_space(n)
    out = set()
    for degree in range(max_degree + 1):
        for combo in itertools.combinations_with_replacement(coords, degree):
            exps = [0] * (2 * n)
            for k in combo:
                exps[k] += 1
            out.add(Poly.monomial(space, tuple(exps)))
    return frozenset(out)


def _nonkernel_term(rng: random.Random, n: int, target: list[int]) -> Poly:
    """c * (m(u, v) - m(v, u)) for m = u_q^2 v_p of one conjugate pair: an
    antisymmetric degree-3 term that no normal-form kernel has."""
    q, p = [0] * (2 * n), [0] * (2 * n)
    q[0], p[n] = 2, 1
    u, v = relabel(tuple(q), target), relabel(tuple(p), target)
    c = small_coefficient(rng, mu=False)
    return Poly.from_terms(pair_space(n), [(u + v, c), (v + u, -c)])


def planted_lie_kernel(rng, kind, n, fit, tag, shapes, chi_mu=True, a3_choices=A3_PLAIN):
    """A theorem2 input built from known (chi, omega, h), and what it must yield."""
    target = relabelling(rng, n)
    if kind == "degenerate":
        omega, coords = _degenerate_omega(rng, target)
    else:
        omega = _nondegenerate_omega(rng, n)
    chi = shaped_chi(rng, n, shapes, target, mu=chi_mu)
    if tag == "sinh":
        text = rng.choice(a3_choices)
        series = (ONE, parse_coefficient(text))
        mu_squared = parse_coefficient(f"6*({text})")
    else:
        series, mu_squared = (ONE,), None
    raw = StructuredLieKernel(n, chi, omega, series).expand(fit)
    if kind == "degenerate":
        planted = checks.PlantedKernel(
            "degenerate", n, generators=_dual_monomials(n, coords, CENTER_DEGREE)
        )
    elif kind == "nonkernel":
        raw = RawLieKernel(n, raw.a + _nonkernel_term(rng, n, target))
        planted = checks.PlantedKernel("nonkernel", n)
    else:
        planted = checks.PlantedKernel(
            "kernel", n, chi=chi, omega=omega, tag=tag, mu_squared=mu_squared
        )
    return raw, planted


def _noncocycle_exponent(rng: random.Random, n: int) -> Poly:
    """A valid exponent plus c*u_i^a v_j^2 (a = 1 or 2): never a 2-cocycle."""
    b = coboundary(gauge_chi(rng, n)) + bilinear_pair_poly(antisymmetric(rng, 2 * n), n)
    width = 2 * n
    i, j = rng.randrange(width), rng.randrange(width)
    exps = [0] * (2 * width)
    exps[i] += rng.choice((1, 2))
    exps[width + j] += 2
    return b + Poly.monomial(pair_space(n), tuple(exps), small_coefficient(rng, mu=False))


def build_classify(seed: int) -> list[Op]:
    """theorem2 on the 12 CLASSIFY_SLOTS, then factorize round trips on planted
    (chi, M) and cocycle_check on planted non-cocycles."""
    rng = random.Random(f"classify-{seed}")
    ops = []
    for kind, n, fit, tag, shapes, chi_mu, a3_choices in CLASSIFY_SLOTS:
        raw, planted = planted_lie_kernel(rng, kind, n, fit, tag, shapes, chi_mu, a3_choices)
        run = partial(
            theorem2_pipeline, raw, fit_degree=fit,
            center_degree=CENTER_DEGREE, verify_degree=VERIFY_DEGREE,
        )
        ops.append(Op(f"theorem2-{kind}", run, partial(checks.theorem2_report, planted)))
    for k in range(FACTORIZE_CASES):
        n = 1 + k % 2
        chi, m = gauge_chi(rng, n), antisymmetric(rng, 2 * n)
        b = coboundary(chi) + bilinear_pair_poly(m, n)
        ops.append(
            Op("factorize", partial(factorize, RawKernelExponent(n, b)),
               partial(checks.factorization, chi, m, b))
        )
    for k in range(NONCOCYCLE_CASES):
        n = 1 + k % 2
        b = _noncocycle_exponent(rng, n)
        ops.append(
            Op("noncocycle", partial(cocycle_check, RawKernelExponent(n, b)),
               partial(checks.noncocycle, b, n))
        )
    return ops


# -- cli ------------------------------------------------------------------------------

DEEP_NESTING = 1200


def _arg(p) -> str:
    """An expression argument; the parentheses keep argparse from reading '-x' as an option."""
    return f"({p})"


def _poly_of(doc_key, space, want):
    """A verify function: parse result[doc_key] and compare it with a polynomial."""

    def verify(doc):
        return checks.equal(doc_key, parse_poly(doc["result"][doc_key], space), want)

    return verify


def _cli_commands(rng: random.Random):
    """(argv, expectation) pairs covering all 14 subcommands."""
    p1, p2 = phase_space(1), phase_space(2)

    def operand():
        terms = {}
        for degree in (1, 2, 3):
            terms[random_exponents(rng, 2, degree)] = small_coefficient(rng, mu=False)
        return Poly.from_terms(p1, terms.items())

    # mu-free operands: the classical limit of their bracket is their Poisson bracket.
    f, g = operand(), operand()

    def weyl_product(x, y):
        return weyl_symbol(nc_mul(weyl_quantize(x), weyl_quantize(y)))

    fg_weyl = weyl_product(f, g)
    bracket_weyl = (fg_weyl - weyl_product(g, f)).scale((MU * 2).inverse())
    poisson = Poly(p1, checks.poisson_terms(f, g, 1))

    out = []

    def add(argv, command, code, verify=None):
        out.append((["--json", *argv], checks.CliExpectation(command, code, verify)))

    # products: the paper's convention [q, p] = 2*mu gives q*p = qp + mu.
    add(["star", "q1", "p1"], "star", 0, _poly_of("poly", p1, parse_poly("q1*p1 + mu", p1)))
    add(["star", _arg(f), _arg(g)], "star", 0, _poly_of("poly", p1, fg_weyl))
    add(["oracle", _arg(f), _arg(g)], "oracle", 0, _poly_of("symbol", p1, fg_weyl))
    add(["oracle", _arg(f)], "oracle", 0, _poly_of("symbol", p1, f))
    add(["bracket", _arg(f), _arg(g)], "bracket", 0, _poly_of("poly", p1, bracket_weyl))
    add(["poisson", _arg(f), _arg(g)], "poisson", 0, _poly_of("poly", p1, poisson))
    add(["limit", _arg(bracket_weyl)], "limit", 0, _poly_of("poly", p1, poisson))
    add(["limit", "q1/mu + p1"], "limit", 1,
        lambda doc: checks.equal("witness kind", doc["witness"]["kind"], "pole-at-mu-zero"))

    a = small_coefficient(rng)
    k, m = rng.randint(1, 3), rng.randint(1, 3)
    mapped = Poly(p1, checks.u_map_monomial(a, k, m))
    add(["u-map", "--chi", f"({a})*u1*u2", f"q1^{k}*p1^{m}"], "u-map", 0,
        _poly_of("poly", p1, mapped))

    # kernel exponents
    chi, mm = gauge_chi(rng, 1), antisymmetric(rng, 2)
    b = coboundary(chi) + bilinear_pair_poly(mm, 1)
    add(["check-cocycle", "--b", _arg(b)], "check-cocycle", 0,
        lambda doc: checks.equal("cocycle", doc["result"]["cocycle"], "pass"))
    bad = b + parse_poly("u1^2*v1^2", pair_space(1))
    add(["check-cocycle", "--b", _arg(bad)], "check-cocycle", 1,
        lambda doc: [] if doc["witness"]["lhs"] != doc["witness"]["rhs"] else ["equal sides"])
    chi2, m2 = gauge_chi(rng, 2), antisymmetric(rng, 4)
    b2 = coboundary(chi2) + bilinear_pair_poly(m2, 2)

    def verify_factorize(doc):
        got_m = Matrix([[parse_coefficient(c) for c in row] for row in doc["result"]["m"]])
        return checks.equal("chi", parse_poly(doc["result"]["chi"], sigma_space(2)), chi2) + (
            checks.equal("M", got_m, m2)
        )

    add(["factorize", "--n", "2", "--b", _arg(b2)], "factorize", 0, verify_factorize)
    omega_deg, coords = _degenerate_omega(rng, relabelling(rng, 2))
    b_deg = coboundary(gauge_chi(rng, 2)) + bilinear_pair_poly(omega_deg, 2)
    centre = _dual_monomials(2, coords, 2)
    add(["center", "--n", "2", "--b", _arg(b_deg)], "center", 0,
        lambda doc: checks.equal(
            "centre", {parse_poly(t, p2) for t in doc["result"]["generators"]}, set(centre)))

    # bracket kernels
    lam = Coefficient.from_int(rng.choice((1, -1, 2, 3)))
    wedge = parse_poly(f"({lam})*(v1*u2 - v2*u1)", pair_space(1))
    add(["check-lie", "--a", _arg(wedge)], "check-lie", 0,
        lambda doc: checks.equal("jacobi", doc["result"]["jacobi"], "exact"))
    add(["check-lie", "--a", _arg(wedge + parse_poly("u1*v1", pair_space(1)))], "check-lie", 1,
        lambda doc: checks.equal("antisymmetry", doc["result"]["antisymmetry"], "violation"))
    omega2 = _nondegenerate_omega(rng, 2)
    a2 = StructuredLieKernel(2, gauge_chi(rng, 2, (2,)), omega2, (ONE,)).expand(4).a

    def verify_omega(doc):
        got = Matrix([[parse_coefficient(c) for c in row] for row in doc["result"]["omega"]])
        return checks.equal("omega", got, omega2)

    add(["extract-omega", "--n", "2", "--a", _arg(a2)], "extract-omega", 0, verify_omega)
    c = Coefficient.from_int(rng.choice((1, 2, 3)))
    mu2 = rng.choice(("1", "4", "mu^2", "9*mu^2"))
    series = [c, c * parse_coefficient(mu2) / Coefficient.from_int(6),
              c * parse_coefficient(f"({mu2})^2") / Coefficient.from_int(120)]
    add(["classify-h", "--series", ", ".join(f"({s})" for s in series)], "classify-h", 0,
        lambda doc: checks.equal("tag", doc["result"]["tag"], "sinh")
        + checks.equal("mu^2", parse_coefficient(doc["result"]["mu_squared"]),
                        parse_coefficient(mu2)))
    add(["classify-h", "--series", "1, 1, 0"], "classify-h", 1,
        lambda doc: checks.equal("witness index", doc["result"]["witness_index"], 5))
    raw, planted = planted_lie_kernel(rng, "kernel", 1, 6, rng.choice(("sinh", "linear")), ((2, 0), (2, 1)))
    add(["theorem2", "--a", _arg(raw.a)], "theorem2", 0,
        lambda doc: checks.equal("status", doc["result"]["status"],
                                  checks.STATUS_OF_TAG[planted.tag])
        + checks.equal("chi", parse_poly(doc["result"]["chi"], sigma_space(1)), planted.chi))
    add(["coeffs", "--a", _arg(wedge)], "coeffs", 0,
        lambda doc: checks.equal(
            "entries", doc["result"]["entries"], {"1,1,1,0": str(lam), "1,0,1,1": str(-lam)})
        + checks.equal("total entries", doc["result"]["total_entries"], 225))

    # A deeply nested argument must be a parse error (exit 2), not a traceback.
    nested = "(" * DEEP_NESTING + "q1" + ")" * DEEP_NESTING
    add(["star", nested, "p1"], "star", 2)
    return out


def _cli_subprocess(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-m", "moyal", *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT,
    )
    return _cli_result(proc.returncode, proc.stdout, proc.stderr)


def _cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except RecursionError as exc:
            raise OpFailed(f"RecursionError in cli.run: {exc}") from None
    return _cli_result(code, out.getvalue(), err.getvalue())


def _cli_result(code, stdout, stderr):
    reason = checks.cli_failure(code, stdout, stderr)
    if reason is not None:
        raise OpFailed(reason)
    return code, stdout


def build_cli(seed: int, in_process: bool = False) -> list[Op]:
    """One `python -m moyal --json ...` subprocess per op (in-process when traced)."""
    rng = random.Random(f"cli-{seed}")
    runner = _cli_in_process if in_process else _cli_subprocess
    ops = []
    for argv, expect in _cli_commands(rng):
        ops.append(
            Op(f"cli-{expect.command}", partial(runner, argv),
               partial(checks.cli_document, expect))
        )
    return ops


BUILDERS = {
    "products": build_products,
    "dense_products": build_dense_products,
    "classify": build_classify,
    "cli": build_cli,
}
