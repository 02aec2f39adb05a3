from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chiy.polynomials import MultivariatePolynomial
from chiy.series import TruncatedSeries, bernoulli


# -- Bernoulli numbers (B_1 = -1/2 convention) --------------------------------


def test_first_bernoulli_numbers():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(6) == Fraction(1, 42)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_odd_bernoulli_numbers_vanish():
    assert all(bernoulli(m) == 0 for m in range(3, 40, 2))


def test_von_staudt_clausen_denominators():
    # denominator of B_2k is the product of primes p with (p-1) | 2k
    expected = {2: 6, 4: 30, 6: 42, 8: 30, 10: 66, 12: 2730}
    for m, den in expected.items():
        assert bernoulli(m).denominator == den


def test_bernoulli_via_generating_series():
    # (e^x - 1)/x * x/(e^x - 1) = 1, with x/(e^x - 1) = sum B_m x^m / m!
    order = 12
    expm1_over_x = TruncatedSeries(
        order, [Fraction(1, _factorial(k + 1)) for k in range(order + 1)]
    )
    bernoulli_series = TruncatedSeries(
        order, [bernoulli(m) / _factorial(m) for m in range(order + 1)]
    )
    assert expm1_over_x * bernoulli_series == TruncatedSeries.one(order)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


# -- series ring axioms -------------------------------------------------------

rational = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
)


@st.composite
def series_of_order(draw, order):
    coeffs = [draw(rational) for _ in range(order + 1)]
    return TruncatedSeries(order, coeffs)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 8).flatmap(lambda o: st.tuples(
    series_of_order(o), series_of_order(o), series_of_order(o))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == TruncatedSeries(a.order, [0] * (a.order + 1))
    assert a * TruncatedSeries.one(a.order) == a


def test_polynomial_coefficients_are_supported():
    # series whose coefficients live in Q[c2]
    variables = ("c2",)
    c2 = MultivariatePolynomial.variable("c2", variables)
    s = TruncatedSeries(2, [MultivariatePolynomial.one(variables), c2, c2 * c2])
    t = s * s
    assert t.coefficients[1] == 2 * c2
    assert t.coefficients[2] == 3 * c2 * c2


def test_order_mismatch_rejected():
    a = TruncatedSeries.one(3)
    b = TruncatedSeries.one(4)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_inexact_scalars_rejected():
    # only ints, Fractions and polynomials are ring scalars, as in the kernel
    s = TruncatedSeries.one(2)
    for build in (
        lambda: TruncatedSeries(1, [1, 0.5]),
        lambda: s * 0.5,
        lambda: 0.5 * s,
        lambda: s / 0.5,
    ):
        with pytest.raises(TypeError, match="expected an exact rational, got float"):
            build()


def test_truncation_degree():
    x = TruncatedSeries(3, [0, 1, 0, 0])
    assert (x * x * x * x) == TruncatedSeries(3, [0, 0, 0, 0])  # x^4 = 0 at order 3


# -- exp ----------------------------------------------------------------------


def test_exp_of_monomial():
    x = TruncatedSeries(4, [0, 1, 0, 0, 0])
    e = x.exp()
    assert e.coefficients == (
        Fraction(1),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(1, 24),
    )


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3).exp()


def test_exp_is_homomorphism_from_addition():
    a = TruncatedSeries(5, [0, 1, 2, Fraction(1, 3), 0, 1])
    b = TruncatedSeries(5, [0, -2, Fraction(5, 7), 0, 1, 4])
    assert (a + b).exp() == a.exp() * b.exp()
