from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chiy.polynomials import MAX_DEGREE, MultivariatePolynomial

VARS = ("c2", "c3", "c4")


def P(**monomials):
    """Shorthand: P(c2=3) is 3*c2, P(_=5) is the constant 5."""
    terms = {}
    for key, coeff in monomials.items():
        if key == "_":
            exps = (0,) * len(VARS)
        else:
            exps = tuple(1 if v == key else 0 for v in VARS)
        terms[exps] = Fraction(coeff)
    return MultivariatePolynomial(VARS, terms)


def gen(name):
    return MultivariatePolynomial.variable(name, VARS)


# -- canonical form ----------------------------------------------------------


def test_zero_coefficients_are_never_stored():
    p = gen("c2") - gen("c2")
    assert p.terms == {}
    assert not p
    assert p == 0


def test_constant_round_trip():
    five = MultivariatePolynomial.constant(5, VARS)
    assert five.is_constant()
    assert five.constant_value() == 5
    assert five == Fraction(5)


def test_equal_polynomials_from_different_routes():
    a = (gen("c2") + 1) * (gen("c2") - 1)
    b = gen("c2") * gen("c2") - 1
    assert a == b


def test_mixed_variable_contexts_rejected():
    other = MultivariatePolynomial.variable("x", ("x", "y"))
    with pytest.raises(ValueError):
        gen("c2") + other


# -- ring axioms (randomized) ------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
exponents = st.tuples(*(st.integers(0, 3) for _ in VARS))
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda terms: MultivariatePolynomial(VARS, terms)
)


@settings(max_examples=120, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0


values = st.one_of(polys, coeffs, st.integers(-20, 20))
weights = st.tuples(*(st.integers(-9, 9) for _ in range(3)))


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(weights, values), max_size=6), st.integers(1, 30))
def test_linear_combinations_agree_with_ring_arithmetic(rows, denominator):
    combined = MultivariatePolynomial.linear_combinations(VARS, rows, denominator)
    if not rows:
        assert combined == ()
        return
    for j, value in enumerate(combined):
        expected = MultivariatePolynomial.zero(VARS)
        for w, v in rows:
            expected = expected + w[j] * v
        assert value == expected / denominator


def test_linear_combinations_reduce_cancellations():
    half = P(c2=Fraction(1, 2))
    a, b = MultivariatePolynomial.linear_combinations(
        VARS, [((2, 1), half), ((-1, 3), gen("c2")), ((0, 1), Fraction(1, 3))], 6
    )
    assert a == 0
    assert b == (P(c2=Fraction(7, 2)) + Fraction(1, 3)) / 6
    with pytest.raises(ValueError):
        MultivariatePolynomial.linear_combinations(
            VARS, [((1,), MultivariatePolynomial.variable("c2", ("c2",)))]
        )
    with pytest.raises(ValueError):
        MultivariatePolynomial.linear_combinations(VARS, [((1,), half)], 0)


@settings(max_examples=60, deadline=None)
@given(polys, st.integers(0, 4))
def test_power_is_repeated_multiplication(a, k):
    expected = MultivariatePolynomial.one(VARS)
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_evaluation_is_a_ring_homomorphism(a, b):
    point = {"c2": Fraction(3, 2), "c3": Fraction(-2), "c4": Fraction(7)}
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


# -- substitution and restriction -------------------------------------------


def test_substitute_polynomial_value():
    # c3 -> c2 + 23 inside c3^2
    c2, c3 = gen("c2"), gen("c3")
    result = (c3 * c3).substitute({"c3": c2 + 23})
    assert result == c2 * c2 + 46 * c2 + 529


def test_substitute_scalar_value():
    p = gen("c2") * gen("c3") + gen("c4")
    assert p.substitute({"c3": Fraction(2)}) == 2 * gen("c2") + gen("c4")


def test_evaluate_requires_used_variables_only():
    p = gen("c2") + 1
    assert p.evaluate({"c2": 4}) == 5
    # unused variables may be omitted, used ones may not
    assert p.evaluate({"c2": 4, "c9": 1}) == 5
    with pytest.raises(ValueError):
        (gen("c2") + gen("c3")).evaluate({"c2": 4})


def test_restrict_drops_unused_variables():
    p = gen("c2") ** 2 - 3
    q = p.restrict(("c2",))
    assert q.variables == ("c2",)
    assert q.evaluate({"c2": 5}) == 22


def test_restrict_refuses_to_drop_used_variable():
    with pytest.raises(ValueError):
        (gen("c2") + gen("c3")).restrict(("c2",))


# -- degrees and queries -----------------------------------------------------


def test_total_degree_and_degree_in():
    p = gen("c2") ** 2 * gen("c3") + gen("c4")
    assert p.total_degree() == 3
    assert p.degree_in("c2") == 2
    assert p.degree_in("c3") == 1
    assert p.degree_in("c4") == 1
    assert MultivariatePolynomial.zero(VARS).total_degree() == 0


def test_used_variables():
    assert (gen("c2") + gen("c4")).used_variables() == {"c2", "c4"}
    assert MultivariatePolynomial.constant(3, VARS).used_variables() == set()


# -- scalar arithmetic edge cases -------------------------------------------


def test_scalar_division():
    p = 3 * gen("c2")
    assert p / 3 == gen("c2")
    assert p / Fraction(3, 2) == 2 * gen("c2")
    with pytest.raises(TypeError):
        p / gen("c2")


def test_reverse_operators():
    p = gen("c2")
    assert 1 - p == -(p - 1)
    assert Fraction(1, 2) * p == p / 2


# -- presentation and serialization ------------------------------------------


def test_str_rendering():
    c2, c3 = gen("c2"), gen("c3")
    assert str(c2 * c2 - 2 * c3 + 1) == "c2^2 - 2*c3 + 1"
    assert str(MultivariatePolynomial.zero(VARS)) == "0"
    assert str(-c2) == "-c2"
    assert str(Fraction(1, 2) * c2) == "1/2*c2"


@settings(max_examples=60, deadline=None)
@given(polys)
def test_json_terms_round_trip(p):
    data = p.to_json_terms()
    back = MultivariatePolynomial.from_json_terms(VARS, data)
    assert back == p


# -- packed exponent fields ---------------------------------------------------


def test_power_at_the_degree_limit_is_exact():
    c4 = gen("c4")  # the lowest field: a carry would land in c3
    p = c4**MAX_DEGREE
    assert p.terms == {(0, 0, MAX_DEGREE): 1}
    assert p.used_variables() == {"c4"}
    assert p.total_degree() == MAX_DEGREE
    with pytest.raises(OverflowError, match="exceeds the packed exponent limit"):
        c4 ** (MAX_DEGREE + 1)
    with pytest.raises(OverflowError):
        p * c4


def test_product_past_the_degree_limit_raises():
    half = MAX_DEGREE // 2 + 1
    a = gen("c3") ** half + 1
    b = gen("c4") ** (MAX_DEGREE - half) - 2
    exact = a * b  # total degree exactly MAX_DEGREE
    assert exact.terms == {
        (0, half, MAX_DEGREE - half): 1,
        (0, half, 0): -2,
        (0, 0, MAX_DEGREE - half): 1,
        (0, 0, 0): -2,
    }
    with pytest.raises(OverflowError):
        a * (b * gen("c2"))
    with pytest.raises(OverflowError):
        a * a
    assert a.substitute({"c2": gen("c3") ** half}) == a  # c2 does not occur
    with pytest.raises(OverflowError):
        (a * gen("c2")).substitute({"c2": gen("c3") ** half})


def test_constructor_rejects_degrees_past_the_limit():
    with pytest.raises(OverflowError):
        MultivariatePolynomial(VARS, {(MAX_DEGREE, 1, 0): 1})


# -- sympy as an independent oracle -------------------------------------------
#
# The oracle is sympy's sparse polynomial ring over QQ, the sparse counterpart
# of sympy.Poly, whose dense representation is too slow at degree 300.

SYMS = ("x", "y", "z")
wide_exponents = st.one_of(st.integers(0, 3), st.integers(256, 300))
wide_polys = st.dictionaries(
    st.tuples(*(wide_exponents for _ in SYMS)), coeffs, max_size=4
).map(lambda terms: MultivariatePolynomial(SYMS, terms))
# substitution values stay small so that x^300 -> value^300 stays cheap
small_values = st.one_of(
    coeffs,
    st.dictionaries(st.tuples(*(st.integers(0, 2) for _ in SYMS)), coeffs, max_size=2).map(
        lambda terms: MultivariatePolynomial(SYMS, terms)
    ),
)
rational_points = st.fixed_dictionaries(
    {name: st.fractions(min_value=-3, max_value=3, max_denominator=4) for name in SYMS}
)


def _oracle_ring():
    sympy = pytest.importorskip("sympy")
    ring, *gens = sympy.ring(",".join(SYMS), sympy.QQ)
    qq = lambda value: sympy.QQ(value.numerator, value.denominator)  # noqa: E731

    def convert(p):
        if not isinstance(p, MultivariatePolynomial):
            return ring(qq(Fraction(p)))
        return ring.from_dict({e: qq(c) for e, c in p.terms.items()})

    return dict(zip(SYMS, gens)), qq, convert


@settings(max_examples=60, deadline=None)
@given(wide_polys, wide_polys, st.integers(0, 3))
def test_arithmetic_agrees_with_sympy(a, b, k):
    _, _, S = _oracle_ring()
    assert S(a + b) == S(a) + S(b)
    assert S(a - b) == S(a) - S(b)
    assert S(a * b) == S(a) * S(b)
    # sympy refuses 0**0; the kernel's convention is that it is 1
    assert S(a**k) == (S(a) ** k if a or k else S(1))


@settings(max_examples=60, deadline=None)
@given(wide_polys, st.sampled_from(SYMS), small_values, rational_points)
def test_substitute_evaluate_and_coefficients_agree_with_sympy(p, name, value, point):
    gens, qq, S = _oracle_ring()
    assert S(p.substitute({name: value})) == S(p).compose(gens[name], S(value))

    value_at = S(p).evaluate([(gens[v], qq(q)) for v, q in point.items()])
    assert p.evaluate(point) == Fraction(int(value_at.numerator), int(value_at.denominator))


@settings(max_examples=60, deadline=None)
@given(wide_polys, wide_polys, wide_polys)
def test_equal_values_from_different_routes_compare_equal(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * (a - b) == a * a - b * b
    assert (a - b) / 3 == Fraction(1, 3) * a - b * Fraction(1, 3)
    assert (a - a).terms == {}
    assert not (a - a)
