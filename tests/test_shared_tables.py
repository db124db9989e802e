"""The bounded tables that products share across calls.

Three tables sit on the operator path: `poly._step_operator` keeps the
operator D/k of the k-th step of the series for exp(D) on a polynomial
target (`u_map`), one entry per (operator, k); `poly._derivative_piece`
keeps the derivative of each (order, monomial) pair; `operators._word_piece`
keeps the canonical words of each (contraction scale, word pair), for
`nc_mul` and both Weyl transitions.  Each kernel keeps its own product
operator (`StarKernel.operator`), so a fresh kernel starts with cold pair
memos.  These tests count what the tables save on fixed products (a series
scales its operator once per step index, never a term, the Weyl transitions
run no series, and the word table misses once per key), and run the
products from eight threads at once, starting from cleared tables and a
fresh kernel, against the per-term oracles of conftest.py.
"""

import importlib
import sys
import threading
from fractions import Fraction

from conftest import (
    oracle_bracket,
    oracle_nc_mul,
    oracle_star,
    oracle_u_map,
    oracle_weyl_quantize,
    oracle_weyl_symbol,
)
from moyal import operators as OPERATORS, poly as POLY, scalars
from moyal.expressions import parse_poly
from moyal.linalg import Matrix
from moyal.operators import nc_mul, weyl_quantize, weyl_symbol
from moyal.poly import DiffOp, Poly, phase_space, sigma_space
from moyal.star import StarKernel, bracket, star, u_map

# The package re-exports the function `star` under the submodule's name.
star_module = importlib.import_module("moyal.star")

SPACE = phase_space(1)


def fresh_kernel():
    """A new kernel object, whose operator is built on first use."""
    return StarKernel(
        1,
        parse_poly("mu*u1^2 + 2*u1*u2 - u2^3", sigma_space(1)),
        Matrix.canonical_symplectic(1, scalars.MU),
    )


OPERANDS = [
    (parse_poly(f, SPACE), parse_poly(g, SPACE))
    for f, g in (
        ("q1^2*p1 + 3*p1/(mu + 1) - 2", "q1*p1^2 - mu*q1 + 1"),
        ("q1^3 - p1^2", "2*p1^3 + q1/(mu^2 + 2)"),
        ("q1*p1", "q1^2 + p1^2"),
        ("1/(mu - 1)", "q1^2*p1^2"),
    )
]


def clear_tables():
    for table in (POLY._step_operator, POLY._derivative_piece, OPERATORS._word_piece):
        table.cache_clear()


def weyl_product(f, g):
    return weyl_symbol(nc_mul(weyl_quantize(f), weyl_quantize(g)))


def race(expected, compute, count=8):
    """compute(f, g) over OPERANDS from `count` threads released together,
    each from its own offset, switching as often as possible; the mismatches
    against expected and the errors raised."""
    barrier = threading.Barrier(count)
    errors = []

    def run(offset):
        try:
            barrier.wait(timeout=60)
            for i in range(len(OPERANDS)):
                k = (i + offset) % len(OPERANDS)
                got = compute(*OPERANDS[k])
                if got != expected[k]:
                    errors.append((k, got))
        except Exception as err:  # noqa: BLE001 - reported by the caller
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_a_series_scales_each_operator_once_per_step_index(monkeypatch):
    clear_tables()
    kernel = fresh_kernel()
    steps, scaled = [], []
    step_operator, scale_fraction = POLY._step_operator, Poly.scale_fraction

    def counting_step(op, k):
        steps.append((op, k))
        return step_operator(op, k)

    def counting_scale(self, q):
        scaled.append((self, q))
        return scale_fraction(self, q)

    monkeypatch.setattr(POLY, "_step_operator", counting_step)
    monkeypatch.setattr(Poly, "scale_fraction", counting_scale)
    # The Weyl transitions are walks over the word table: no series, no scaling.
    for f, g in OPERANDS:
        weyl_product(f, g)
    assert steps == [] and scaled == []
    for f, g in OPERANDS:
        u_map(star(f, g, kernel), kernel.chi)
    chi = DiffOp.from_sigma_poly(kernel.chi.in_space(SPACE)).poly
    # The exp pieces of `star` are monomial images (`DiffOp.monomial_exp`):
    # the kernel exponent's operator runs no series and is never scaled.
    # Only u_map's operator runs one.
    assert {op for op, _ in steps} == {op for op, _ in scaled} == {chi}
    # Once per distinct k, against one step per series term: one series per
    # operand pair (four pairs), scaled once per step index of the longest.
    longest = max(k for _, k in steps)
    assert set(scaled) == {(chi, Fraction(1, k)) for k in range(1, longest + 1)}
    assert len(scaled) == longest < len(steps) / 3


def transition_keys(f, s):
    """The word-table keys of exp(s mu sum d/dq d/dp) f: for q^a p^b, the pair (p^b, q^a)."""
    n = len(f.space) // 2
    zeros = (0,) * n
    return {(s, zeros + e[n:], e[:n] + zeros) for e in f.terms}


def test_the_word_table_misses_once_per_word_pair():
    """One miss per distinct (scale, word pair) key: the pairs of `nc_mul`
    at s = -2, and the pieces of `weyl_quantize` (s = -1) and `weyl_symbol`
    (s = +1)."""
    clear_tables()
    keys = set()
    for f, g in OPERANDS:
        x, y = weyl_quantize(f), weyl_quantize(g)
        keys |= transition_keys(f, -1) | transition_keys(g, -1)
        assert (x, y) == (oracle_weyl_quantize(f), oracle_weyl_quantize(g))
        product = nc_mul(x, y)
        keys |= {(-2, w1, w2) for w1 in x.terms for w2 in y.terms}
        assert product == oracle_nc_mul(x, y)
        symbol = weyl_symbol(product)
        keys |= transition_keys(product.poly, +1)
        assert symbol == oracle_weyl_symbol(product)
        misses = OPERATORS._word_piece.cache_info().misses
        assert weyl_product(f, g) == symbol
        assert OPERATORS._word_piece.cache_info().misses == misses
    assert OPERATORS._word_piece.cache_info().misses == len(keys)


def test_threads_share_the_tables_from_cold():
    kernel = fresh_kernel()
    expected = [
        (
            oracle_star(f, g, kernel),
            oracle_u_map(f, kernel.chi),
            oracle_weyl_symbol(oracle_nc_mul(oracle_weyl_quantize(f), oracle_weyl_quantize(g))),
        )
        for f, g in OPERANDS
    ]

    def compute(f, g):
        return star(f, g, kernel), u_map(f, kernel.chi), weyl_product(f, g)

    clear_tables()
    assert race(expected, compute) == []


def test_threads_race_the_first_operator_access():
    """Eight threads reach `star` and `bracket` on a fresh kernel at once, so
    several may build its operator; every result is still the oracle's.
    Identity across threads is not asserted: from Python 3.12 on
    `cached_property` takes no lock, so a thread may run on a build of its
    own that the kernel then drops."""
    kernel = fresh_kernel()
    expected = [(oracle_star(f, g, kernel), oracle_bracket(f, g, kernel)) for f, g in OPERANDS]
    assert "operator" not in vars(kernel)
    assert race(expected, lambda f, g: (star(f, g, kernel), bracket(f, g, kernel))) == []
    operator = kernel.operator
    assert kernel.operator is operator and vars(kernel)["operator"] is operator


def test_threads_share_a_small_image_memo(monkeypatch):
    """Eight threads build the monomial images of one fresh operator while its
    memo, bounded at four images, keeps emptying itself; every product is
    still the oracle's."""
    monkeypatch.setattr(POLY, "IMAGE_MEMO_SIZE", 4)
    monkeypatch.setattr(star_module, "PAIR_MEMO_SIZE", 2)
    kernel = fresh_kernel()
    expected = [(oracle_star(f, g, kernel), oracle_bracket(f, g, kernel)) for f, g in OPERANDS]
    assert race(expected, lambda f, g: (star(f, g, kernel), bracket(f, g, kernel))) == []
    # A thread may add its image after another has checked the size: at most
    # one extra image per thread.
    assert len(kernel.operator.op._images) <= 4 + 8
