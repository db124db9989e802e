"""The coefficient field Q(i)(mu): exactness, canonical form, evaluation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from moyal import scalars
from moyal.errors import PoleAtMuZeroError
from moyal.expressions import parse_coefficient
from moyal.scalars import Coefficient

ZERO, ONE, I, MU = scalars.ZERO, scalars.ONE, scalars.I, scalars.MU


def _coefficients(rng, count):
    out = []
    for _ in range(count):
        terms = [(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(3)]
        num = Coefficient.from_ints([re for re, _ in terms], [im for _, im in terms], 1)
        den = Coefficient.from_ints([rng.randint(-3, 3) for _ in range(2)], (), 1)
        out.append(Coefficient.make(num.num, den.num) if den else num)
    return out


small = st.integers(min_value=-4, max_value=4)


@given(small, small, small, small, small, small)
def test_field_axioms_small(a, b, c, d, e, f):
    x = Coefficient.from_ints([a], [b], 1)
    y = Coefficient.from_ints([c], [d], 1) + MU.scale_int(e)
    z = Coefficient.from_int(f) * MU
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + ZERO == x
    assert x * ONE == x
    if x:
        assert x * x.inverse() == ONE


def test_field_axioms_rational_functions():
    rng = random.Random(7)
    values = _coefficients(rng, 40)
    for x in values:
        assert x + (-x) == ZERO
        if x:
            assert x * x.inverse() == ONE
            assert (ONE / x) * x == ONE
    for x, y, z in zip(values, values[1:], values[2:]):
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)


def test_canonical_form_is_unique():
    # (mu^2 - 1)/(mu - 1) reduces to mu + 1.
    num = Coefficient.from_ints([-1, 0, 1], (), 1).num
    den = Coefficient.from_ints([-1, 1], (), 1).num
    assert Coefficient.make(num, den) == ONE + MU
    # Denominators are normalized monic: (2 mu)/(2) == mu, (mu)/(2 mu) == 1/2.
    assert (MU.scale_int(2)) / Coefficient.from_int(2) == MU
    half = Coefficient.from_ints([1], (), 2)
    assert MU / MU.scale_int(2) == half == ONE.scale_fraction(Fraction(1, 2))
    assert hash(MU / MU.scale_int(2)) == hash(half)


def test_imaginary_unit():
    assert I * I == scalars.MINUS_ONE
    assert scalars.neg_i_power(1) == -I
    assert scalars.neg_i_power(2) == scalars.MINUS_ONE
    assert scalars.neg_i_power(3) == I
    assert scalars.neg_i_power(4) == ONE
    assert (ONE / I) == -I


def test_eval_at_mu_zero():
    c = (ONE + MU) * (ONE + MU)
    assert c.mu_zero() == ONE
    assert (MU * MU).mu_zero() == ZERO
    with pytest.raises(PoleAtMuZeroError):
        (ONE / MU).mu_zero()
    # A removable pole is cancelled by normalization before evaluation.
    assert ((MU * MU) / MU).mu_zero() == ZERO


def test_mu_valuation_and_monomials():
    c = MU * MU + MU.scale_int(3)
    assert c.mu_valuation() == 1
    assert (ONE / MU).mu_valuation() == -1
    assert ZERO.mu_valuation() is None
    assert c.mu_components() == {1: Coefficient.from_int(3), 2: ONE}
    with pytest.raises(ValueError):
        (ONE / (ONE + MU)).mu_components()


def test_pow():
    assert MU**3 == MU * MU * MU
    assert (MU**-2) * MU**2 == ONE
    assert (I + MU) ** 0 == ONE


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-1", "i", "-i", "mu", "2*mu^2 - mu + 1/2", "1/mu",
     "(3/2*mu^2 + 1/2)/mu", "1/2+3*i", "(1+i)*mu"],
)
def test_string_round_trip(text):
    c = parse_coefficient(text)
    assert parse_coefficient(str(c)) == c


def test_render_examples():
    assert str(MU) == "mu"
    assert str(ONE / MU) == "1/mu"
    assert str(I.scale_int(-1)) == "-i"
    assert str((ONE + MU) / (MU * MU)) == "(mu + 1)/mu^2"
