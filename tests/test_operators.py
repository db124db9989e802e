"""The operator route: canonical ordering, products, and the Weyl map.

The brute-force symmetrizer below is the independent oracle for the
symmetric-ordering fixtures: it averages every distinct arrangement of the
word's letters, multiplying letter by letter with nc_mul, and never touches
the exponential-operator composition used by weyl_quantize.
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import monomial_tuples, random_poly
from moyal import scalars
from moyal.errors import DegreeGuardError
from moyal.expressions import parse_poly
from moyal.operators import NCPoly, nc_mul, weyl_quantize, weyl_symbol
from moyal.poly import Poly, degree_guard, phase_space, sigma_space
from moyal.star import StarKernel, star, u_map

SP = phase_space(1)
Q = Poly.variable(SP, "q1")
P = Poly.variable(SP, "p1")
QH = NCPoly.generator(1, "qh1")
PH = NCPoly.generator(1, "ph1")


def symmetrize_word(n: int, exps) -> NCPoly:
    """Average of all distinct letter orderings of qh^a ph^b (oracle)."""
    letters = []
    for i in range(n):
        letters += [("q", i)] * exps[i]
    for i in range(n):
        letters += [("p", i)] * exps[n + i]
    seen = set(itertools.permutations(letters))
    total = NCPoly.zero(n)
    for arrangement in seen:
        word = NCPoly.identity(n)
        for kind, i in arrangement:
            name = f"qh{i+1}" if kind == "q" else f"ph{i+1}"
            word = nc_mul(word, NCPoly.generator(n, name))
        total = total + word
    return total.scale(scalars.Coefficient.from_fraction(Fraction(1, len(seen))))


class TestNCMul:
    def test_defining_relation(self):
        assert nc_mul(PH, QH) == NCPoly(1, {(1, 1): scalars.ONE, (0, 0): scalars.MU.scale_int(-2)})

    def test_one_rewrite_step(self):
        qp = nc_mul(QH, PH)
        got = nc_mul(qp, QH)
        expected = NCPoly(1, {(2, 1): scalars.ONE, (1, 0): scalars.MU.scale_int(-2)})
        assert got == expected

    def test_associativity_instance(self):
        assert nc_mul(nc_mul(QH, PH), PH) == nc_mul(QH, nc_mul(PH, PH))

    def test_commutator_is_two_mu(self):
        comm = nc_mul(QH, PH) - nc_mul(PH, QH)
        assert comm == NCPoly(1, {(0, 0): scalars.MU.scale_int(2)})

    def test_associativity_randomized(self):
        rng = random.Random(31)
        for n in (1, 2):
            words = [
                NCPoly.word(
                    n,
                    tuple(rng.randint(0, 2) for _ in range(2 * n)),
                    scalars.Coefficient.from_int(rng.randint(1, 3)),
                )
                for _ in range(9)
            ]
            for a, b, c in zip(words, words[3:], words[6:]):
                assert nc_mul(nc_mul(a, b), c) == nc_mul(a, nc_mul(b, c))

    def test_mixed_dimensions_commute(self):
        qh2 = NCPoly.generator(2, "qh2")
        ph1 = NCPoly.generator(2, "ph1")
        assert nc_mul(qh2, ph1) == nc_mul(ph1, qh2)

    def test_degree_guard(self):
        qh3, ph3 = NCPoly.word(1, (3, 0)), NCPoly.word(1, (0, 3))
        with degree_guard(4):
            with pytest.raises(DegreeGuardError):
                nc_mul(qh3, ph3)
            assert nc_mul(QH, ph3) == NCPoly.word(1, (1, 3))
        assert nc_mul(qh3, ph3)


class TestWeylQuantize:
    def test_degree_one(self):
        assert weyl_quantize(Q) == QH
        assert weyl_quantize(P) == PH

    def test_qp_fixture(self):
        assert weyl_quantize(Q * P) == NCPoly(
            1, {(1, 1): scalars.ONE, (0, 0): -scalars.MU}
        )

    def test_q2p_fixture(self):
        got = weyl_quantize(Q**2 * P)
        assert got == NCPoly(1, {(2, 1): scalars.ONE, (1, 0): scalars.MU.scale_int(-2)})

    @pytest.mark.parametrize("exps", [(1, 1), (2, 1), (2, 2), (3, 2), (0, 3)])
    def test_against_brute_force_symmetrization(self, exps):
        assert weyl_quantize(Poly.monomial(SP, exps)) == symmetrize_word(1, exps)

    def test_against_symmetrization_n2(self):
        exps = (1, 1, 1, 1)
        assert weyl_quantize(Poly.monomial(phase_space(2), exps)) == symmetrize_word(
            2, exps
        )

    def test_linear_and_unit(self):
        rng = random.Random(37)
        f = random_poly(rng, SP, 3)
        g = random_poly(rng, SP, 3)
        assert weyl_quantize(f + g) == weyl_quantize(f) + weyl_quantize(g)
        assert weyl_quantize(Poly.one(SP)) == NCPoly.identity(1)


class TestWeylSymbol:
    def test_fixtures(self):
        assert weyl_symbol(nc_mul(QH, PH)) == parse_poly("q1*p1 + mu", SP)
        assert weyl_symbol(NCPoly.identity(1)) == Poly.one(SP)
        f = Q**3 * P**2
        assert weyl_symbol(weyl_quantize(f)) == f

    def test_round_trip_degree_six(self):
        for a in range(4):
            for b in range(4):
                if a + b <= 6:
                    f = Poly.monomial(SP, (a, b))
                    assert weyl_symbol(weyl_quantize(f)) == f
        sp2 = phase_space(2)
        for exps in ((1, 2, 2, 1), (3, 0, 0, 3), (2, 1, 1, 2)):
            f = Poly.monomial(sp2, exps)
            assert weyl_symbol(weyl_quantize(f)) == f

    def test_two_sided_inverse(self):
        op = nc_mul(nc_mul(QH, PH), nc_mul(PH, QH))
        assert weyl_quantize(weyl_symbol(op)) == op


class TestHomomorphism:
    def test_moyal_star_maps_to_operator_product(self):
        kernel = StarKernel.moyal(1)
        for f, g in monomial_tuples(SP, 2, 4):
            assert weyl_quantize(star(f, g, kernel)) == nc_mul(
                weyl_quantize(f), weyl_quantize(g)
            )

    @pytest.mark.parametrize("chi_text", ["mu*u1*u2", "u1^2", "mu*u2^2 + u1^3"])
    def test_generalized_ordering(self, chi_text):
        # O(f) := weyl_quantize(u_map(f, chi)) intertwines the dressed star
        # with the operator product, for the dressed kernel (chi, mu*J).
        chi = parse_poly(chi_text, sigma_space(1))
        dressed = StarKernel(1, chi, StarKernel.moyal(1).m)

        def quantize_ordered(f):
            return weyl_quantize(u_map(f, chi))

        for f, g in ((Q, P), (Q**2, P**2), (Q * P, Q**2), (P**2, Q * P)):
            assert quantize_ordered(star(f, g, dressed)) == nc_mul(
                quantize_ordered(f), quantize_ordered(g)
            )

    def test_standard_kernel_orders_p_first(self):
        # The built-in `standard` kernel corresponds to ph-left words.
        kernel = StarKernel.standard(1)
        ordered = weyl_quantize(u_map(Q * P, kernel.chi))
        assert ordered == nc_mul(PH, QH)
