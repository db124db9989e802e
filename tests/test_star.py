"""Star products, brackets, Poisson limit, and the ordering-change map."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from conftest import monomial_tuples, monomials, random_antisymmetric, random_gauge_chi
from moyal import scalars
from moyal.errors import DimensionMismatchError, PoleAtMuZeroError
from moyal.expressions import parse_poly
from moyal.linalg import Matrix
from moyal.poly import Poly, phase_space, sigma_space
from moyal.star import StarKernel, bracket, classical_limit, poisson, star, u_map

SP = phase_space(1)
Q = Poly.variable(SP, "q1")
P = Poly.variable(SP, "p1")
MOYAL = StarKernel.moyal(1)
MU = scalars.MU


def pp(text, space=SP):
    return parse_poly(text, space)


class TestStar:
    def test_moyal_fixtures(self):
        assert star(Q, P, MOYAL) == pp("q1*p1 + mu")
        assert star(P, Q, MOYAL) == pp("q1*p1 - mu")
        assert star(Q**2, P, MOYAL) == pp("q1^2*p1 + 2*mu*q1")

    def test_unit_law(self):
        one = Poly.one(SP)
        for f in (Q**3 * P, pp("q1*p1 + mu*q1"), one):
            assert star(f, one, MOYAL) == f
            assert star(one, f, MOYAL) == f

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            star(Q, Poly.variable(phase_space(2), "q1"), MOYAL)

    def test_p_linear_joint_truncation(self):
        # With joint p-degree <= 1 the series stops after the first correction.
        rng = random.Random(5)
        for _ in range(10):
            aq = rng.randint(0, 3)
            bq = rng.randint(0, 3)
            f = Poly.monomial(SP, (aq, rng.randint(0, 1)))
            g = Poly.monomial(SP, (bq, 0))
            first = (
                f.differentiate(0) * g.differentiate(1)
                - f.differentiate(1) * g.differentiate(0)
            ).scale(MU)
            assert star(f, g, MOYAL) == f * g + first

    def test_associativity_randomized_kernels(self):
        rng = random.Random(23)
        for _ in range(4):
            n = rng.choice([1, 2])
            kernel = StarKernel(
                n,
                random_gauge_chi(rng, n, 3, terms=2),
                random_antisymmetric(rng, 2 * n),
            )
            space = phase_space(n)
            for f, g, h in monomial_tuples(space, 3, 3):
                assert star(star(f, g, kernel), h, kernel) == star(
                    f, star(g, h, kernel), kernel
                )


class TestBracket:
    def test_fixtures(self):
        assert bracket(Q, P, MOYAL) == Poly.one(SP)
        assert bracket(Q**2, P**2, MOYAL) == pp("4*q1*p1")
        assert bracket(Q**3, P**3, MOYAL) == pp("9*q1^2*p1^2 + 6*mu^2")

    def test_antisymmetry_and_constants(self):
        for f, g in ((Q, P), (Q**2, Q * P), (P**3, Q**2)):
            assert bracket(f, g, MOYAL) == -bracket(g, f, MOYAL)
        const = Poly.constant(SP, scalars.I + MU)
        assert bracket(Q * P, const, MOYAL).is_zero

    def test_jacobi(self):
        for f, g, h in ((Q, P, Q * P), (Q**2, P, Q * P), (Q, Q * P, P**2)):
            total = (
                bracket(f, bracket(g, h, MOYAL), MOYAL)
                + bracket(g, bracket(h, f, MOYAL), MOYAL)
                + bracket(h, bracket(f, g, MOYAL), MOYAL)
            )
            assert total.is_zero


class TestPoisson:
    def test_fixtures(self):
        assert poisson(Q, P) == Poly.one(SP)
        assert poisson(Q**2, P**2) == pp("4*q1*p1")
        assert poisson(Q * P, Q) == -Q

    def test_axioms(self):
        rng = random.Random(3)
        sp2 = phase_space(2)
        from conftest import random_poly

        for _ in range(5):
            f = random_poly(rng, sp2, 3)
            g = random_poly(rng, sp2, 3)
            h = random_poly(rng, sp2, 3)
            assert poisson(f, g) == -poisson(g, f)
            assert poisson(f, g * h) == poisson(f, g) * h + g * poisson(f, h)
            jac = (
                poisson(f, poisson(g, h))
                + poisson(g, poisson(h, f))
                + poisson(h, poisson(f, g))
            )
            assert jac.is_zero


class TestClassicalLimit:
    def test_fixtures(self):
        assert classical_limit(pp("9*q1^2*p1^2 + 6*mu^2")) == pp("9*q1^2*p1^2")
        assert classical_limit(Q * P) == Q * P
        with pytest.raises(PoleAtMuZeroError) as err:
            classical_limit(pp("(1/mu)*q1"))
        assert "q1" in str(err.value)

    def test_limit_of_bracket_is_poisson(self):
        assert classical_limit(bracket(Q**3, P**3, MOYAL)) == poisson(Q**3, P**3)

    def test_poisson_limit_for_vanishing_chi(self):
        # Kernels whose chi vanishes at mu = 0 (and M = mu*J) have the
        # canonical Poisson bracket as classical limit.
        for chi_text in ("mu*u1*u2", "mu*u1^3 + mu^2*u2^2"):
            kernel = StarKernel(1, pp(chi_text, sigma_space(1)), MOYAL.m)
            for f, g in ((Q**2, P**2), (Q * P, P**3), (Q**3, Q * P)):
                assert classical_limit(bracket(f, g, kernel)) == poisson(f, g)


class TestUMap:
    def test_identity_for_zero_chi(self):
        assert u_map(Q * P, Poly.zero(sigma_space(1))) == Q * P

    def test_standard_kernel_fixture(self):
        chi = pp("mu*u1*u2", sigma_space(1))
        assert u_map(Q * P, chi) == pp("q1*p1 - mu")
        assert u_map(u_map(Q * P, chi), -chi) == Q * P

    def test_rejects_constant_term(self):
        with pytest.raises(ValueError):
            u_map(Q, pp("1 + u1", sigma_space(1)))

    @pytest.mark.parametrize("chi_text", ["mu*u1*u2", "u1^2", "u1^3"])
    def test_intertwines_and_inverts(self, chi_text):
        chi = pp(chi_text, sigma_space(1))
        dressed = StarKernel(1, chi, MOYAL.m)
        for f, g in ((Q, P), (Q**2, P**2), (Q * P, Q**2 * P)):
            lhs = u_map(star(f, g, dressed), chi)
            rhs = star(u_map(f, chi), u_map(g, chi), MOYAL)
            assert lhs == rhs
            assert u_map(u_map(f, chi), -chi) == f

    def test_intertwines_bracket(self):
        chi = pp("u1^2", sigma_space(1))
        dressed = StarKernel(1, chi, MOYAL.m)
        f, g = Q**2, Q * P
        assert u_map(bracket(f, g, dressed), chi) == bracket(
            u_map(f, chi), u_map(g, chi), MOYAL
        )


def test_every_star_kernel_exponent_is_a_cocycle():
    # The converse direction: kernels built as (chi, M) always pass the check.
    from moyal.cocycle import RawKernelExponent, cocycle_check

    rng = random.Random(29)
    for _ in range(5):
        n = rng.choice([1, 2])
        kernel = StarKernel(
            n, random_gauge_chi(rng, n, 3, terms=2), random_antisymmetric(rng, 2 * n)
        )
        assert cocycle_check(RawKernelExponent(n, kernel.exponent())) is None


def test_equal_matrices_hash_equal():
    # A kernel is a frozen record, so equal kernels must hash equal.
    rows = [[scalars.ZERO, scalars.MU], [-scalars.MU, scalars.ZERO]]
    a, b = Matrix(rows), Matrix([list(r) for r in rows])
    assert a is not b and a == b
    assert hash(a) == hash(b) == hash(a)
    assert hash(StarKernel(1, MOYAL.chi, a)) == hash(StarKernel(1, MOYAL.chi, b))
    assert hash(a) == hash(Matrix.canonical_symplectic(1, scalars.MU))


def test_a_kernel_is_freed_after_its_products():
    # Its operator is kept on the kernel, not in a table keyed by it, and
    # neither the operator nor its memos (the pair pieces, the monomial
    # images and the derivatives D_i) refer back to it: reference counting
    # alone frees it, with the cycle collector off.
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        kernel = StarKernel(1, pp("mu*u1^2 + u1*u2", sigma_space(1)), MOYAL.m)
        assert star(Q**2, P, kernel) == star(Q**2, P, kernel)
        assert bracket(Q, P**2, kernel) == -bracket(P**2, Q, kernel)
        assert kernel.operator.op._images
        ref = weakref.ref(kernel)
        del kernel
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_repeated_product_misses_the_exp_memo_once():
    kernel = StarKernel.moyal(1)
    for _ in range(3):
        assert star(Q**2, P, kernel) == pp("q1^2*p1 + 2*mu*q1")
    info = kernel.operator._exp_piece.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
