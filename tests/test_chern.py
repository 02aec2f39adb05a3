import math
import random
from fractions import Fraction

import pytest

from chiy.chern import (
    ChernVector,
    _todd_log_coefficients,
    chern_to_power_sums,
    power_sums_to_elementary,
    projective_space,
    todd_class,
)
from chiy.polynomials import MultivariatePolynomial
from chiy.series import TruncatedSeries


def test_chern_vector_basics():
    c = ChernVector([3, 3])
    assert c.n == 2
    assert c.scalar(0) == 1
    assert c.scalar(1) == 3
    assert c.scalar(2) == 3
    with pytest.raises(ValueError):
        c.scalar(3)


def test_chern_vector_rejects_inexact_scalars():
    # a float would turn the Todd class and A_1 into floats
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        ChernVector([1.5, 2.0])


def test_projective_space_chern_is_binomial():
    for n in range(1, 12):
        c = projective_space(n)
        assert [c.scalar(i) for i in range(n + 1)] == [
            math.comb(n + 1, i) for i in range(n + 1)
        ]


# -- Newton identities --------------------------------------------------------


def test_power_sums_of_p2():
    assert chern_to_power_sums(ChernVector([3, 3])) == [3, 3]


def test_power_sums_of_projective_space_are_constant():
    # ch of the tangent bundle is (n+1)e^x - 1, so every power sum is n+1
    for n in range(1, 9):
        p = chern_to_power_sums(projective_space(n))
        assert p == [Fraction(n + 1)] * n


def test_newton_round_trip_on_random_vectors():
    rng = random.Random(7)
    for n in range(1, 11):
        for _ in range(20):
            c = ChernVector([rng.randint(-9, 9) for _ in range(n)])
            p = chern_to_power_sums(c)
            e = power_sums_to_elementary(list(p), rank=n)
            assert tuple(e) == tuple(c.scalar(i) for i in range(1, n + 1))


def test_newton_round_trip_symbolic():
    variables = ("c1", "c2", "c3")
    gens = MultivariatePolynomial.generators(variables)
    c = ChernVector(list(gens))
    p = chern_to_power_sums(c)
    e = power_sums_to_elementary(list(p), rank=3)
    assert tuple(e) == tuple(gens)


# -- Todd classes -------------------------------------------------------------


def test_todd_of_p1_and_p2():
    td1 = todd_class(projective_space(1))
    assert td1.coefficients == (Fraction(1), Fraction(1))  # 1 + x

    td2 = todd_class(projective_space(2))
    assert td2.coefficients == (Fraction(1), Fraction(3, 2), Fraction(1))


def test_todd_log_coefficients_against_the_todd_series():
    # exp(sum t_m x^m) = x / (1 - e^{-x}) and (1 - e^{-x}) / x =
    # sum (-1)^k x^k / (k+1)!, so their product is 1; no Bernoulli number used
    order = 24
    todd = TruncatedSeries(order, _todd_log_coefficients(order)).exp()
    one_minus_exp_over_x = TruncatedSeries(
        order, [Fraction((-1) ** k, math.factorial(k + 1)) for k in range(order + 1)]
    )
    assert todd * one_minus_exp_over_x == TruncatedSeries.one(order)


def test_universal_todd_polynomials():
    # degree <= 3 Todd polynomials in symbolic Chern classes:
    # 1, c1/2, (c1^2 + c2)/12, c1*c2/24
    variables = ("c1", "c2", "c3")
    c1, c2, c3 = MultivariatePolynomial.generators(variables)
    td = todd_class(ChernVector([c1, c2, c3]))
    assert td.coefficients[0] == 1
    assert td.coefficients[1] == c1 / 2
    assert td.coefficients[2] == (c1 * c1 + c2) / 12
    assert td.coefficients[3] == c1 * c2 / 24


def test_todd_integrates_to_one_on_projective_space():
    for n in range(1, 11):
        assert todd_class(projective_space(n)).coefficients[n] == 1


def _at_point(component, point):
    # graded components may be plain Fractions in degree zero
    if isinstance(component, Fraction):
        return component
    return component.evaluate(point)


def test_todd_specialization_commutes():
    # substituting numbers into the symbolic Todd class agrees with
    # computing the Todd class of the numeric vector directly
    rng = random.Random(21)
    for n in range(1, 7):
        variables = tuple(f"c{i}" for i in range(1, n + 1))
        gens = MultivariatePolynomial.generators(variables)
        symbolic = todd_class(ChernVector(list(gens)))
        values = [Fraction(rng.randint(-6, 6)) for _ in range(n)]
        numeric = todd_class(ChernVector(values))
        point = dict(zip(variables, values))
        for k in range(n + 1):
            assert _at_point(symbolic.coefficients[k], point) == numeric.coefficients[k]


def test_todd_degree_locality():
    # the degree-k Todd component depends only on c_1..c_k
    variables = tuple(f"c{i}" for i in range(1, 6))
    gens = MultivariatePolynomial.generators(variables)
    td = todd_class(ChernVector(list(gens)))
    for k in range(6):
        component = td.coefficients[k]
        used = set() if isinstance(component, Fraction) else component.used_variables()
        assert used <= {f"c{i}" for i in range(1, k + 1)}


# -- graded classes -------------------------------------------------------------


def test_graded_class_multiplication_truncates():
    g = TruncatedSeries(2, [1, 2, 3])
    h = TruncatedSeries(2, [1, 1, 0])
    assert (g * h).coefficients == (1, 3, 5)


def test_manifold_model_dimension():
    assert projective_space(4).n == 4
    assert ChernVector([3, 3]).n == 2
    with pytest.raises(ValueError):
        projective_space(0)
