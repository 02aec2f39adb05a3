import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from chiy.chern import (
    ChernVector,
    chern_to_power_sums,
    power_sums_to_elementary,
    projective_space,
    todd_class,
)
from chiy.fujita import Branch, adjunction_chern, generate_system, unknown_chern_vector
from chiy.genus import (
    ChiYPolynomial,
    HodgeDiamond,
    MinusOneExpansion,
    _weight_table,
    a1_closed_form,
    chi_y_from_chern,
    chi_y_from_hodge,
    expand_at_minus_one,
    minus_one_coefficients,
    pinned_products,
)
from chiy.polynomials import MultivariatePolynomial
from chiy.series import TruncatedSeries


# -- frozen anchor values ------------------------------------------------------


def test_chi_y_of_p5():
    chi = chi_y_from_chern(projective_space(5))
    assert chi.chi_p == (1, -1, 1, -1, 1, -1)


def test_p5_expansion_coefficients():
    chi = chi_y_from_chern(projective_space(5))
    expansion = expand_at_minus_one(chi)
    assert expansion.coefficients == (6, -15, 20, -15, 6, -1)
    assert expansion.A(0) == 6
    assert expansion.A(1) == 20
    assert expansion.A(2) == 6


def test_projective_expansion_is_binomial():
    # a_j = (-1)^j * binom(n+1, j+1)
    import math

    for n in range(1, 9):
        chi = chi_y_from_chern(projective_space(n))
        expansion = expand_at_minus_one(chi)
        expected = tuple(
            Fraction((-1) ** j * math.comb(n + 1, j + 1)) for j in range(n + 1)
        )
        assert expansion.coefficients == expected


def test_k3_surface_from_both_routes():
    # c_1 = 0, c_2 = 24; the diamond has h^{1,1} = 20
    chern_route = chi_y_from_chern(ChernVector([0, 24]))
    diamond = HodgeDiamond([[1, 0, 1], [0, 20, 0], [1, 0, 1]])
    hodge_route = chi_y_from_hodge(diamond)
    assert chern_route.chi_p == (2, -20, 2)
    assert chern_route == hodge_route
    expansion = expand_at_minus_one(chern_route)
    assert expansion.A(0) == 24  # Euler number
    assert expansion.A(1) == 2
    assert expansion.A(1) == a1_closed_form(ChernVector([0, 24]))
    assert chern_route.evaluate(1) == -16  # signature of the K3 surface


def test_p2_noether_value():
    c = ChernVector([3, 3])
    chi = chi_y_from_chern(c)
    assert chi.chi_p[0] == 1
    assert expand_at_minus_one(chi).A(1) == 1
    assert a1_closed_form(c) == 1


def test_noether_formula_symbolic():
    # chi_0 of a surface is (c_1^2 + c_2)/12
    variables = ("c1", "c2")
    c1, c2 = MultivariatePolynomial.generators(variables)
    assert chi_y_from_chern(ChernVector([c1, c2])).chi_p[0] == (c1 * c1 + c2) / 12


def test_curve_of_genus_g_symbolic():
    # c_1 = 2 - 2g, so chi_0 = 1 - g and chi_1 = g - 1
    variables = ("g",)
    (g,) = MultivariatePolynomial.generators(variables)
    chi = chi_y_from_chern(ChernVector([2 - 2 * g]))
    assert chi.chi_p[0] == 1 - g
    assert chi.chi_p[1] == g - 1


def test_genus_two_curve_from_diamond():
    diamond = HodgeDiamond([[1, 2], [2, 1]])
    chi = chi_y_from_hodge(diamond)
    assert chi.chi_p == (-1, 1)  # chi_y = -1 + y


def test_hodge_route_matches_chern_route_on_projective_space():
    for n in range(1, 9):
        chern_route = chi_y_from_chern(projective_space(n))
        hodge_route = chi_y_from_hodge(HodgeDiamond.projective_space(n))
        assert chern_route == hodge_route


# -- identities on random Chern data -------------------------------------------


def test_a1_closed_form_on_random_vectors():
    rng = random.Random(11)
    for n in range(2, 9):
        for _ in range(25):
            c = ChernVector([rng.randint(-10, 10) for _ in range(n)])
            expansion = expand_at_minus_one(chi_y_from_chern(c))
            assert expansion.A(1) == a1_closed_form(c)


def test_first_order_coefficient_identity():
    # a_1 = -(n/2) * c_n for any Chern data
    rng = random.Random(13)
    for n in range(1, 8):
        for _ in range(10):
            c = ChernVector([rng.randint(-8, 8) for _ in range(n)])
            expansion = expand_at_minus_one(chi_y_from_chern(c))
            assert expansion.coefficients[1] == Fraction(-n, 2) * c.scalar(n)


def test_euler_is_top_chern_number():
    rng = random.Random(17)
    for n in range(1, 8):
        c = ChernVector([rng.randint(-8, 8) for _ in range(n)])
        expansion = expand_at_minus_one(chi_y_from_chern(c))
        assert expansion.A(0) == c.scalar(n)


# -- expansion mechanics --------------------------------------------------------


def test_expansion_reconstruct_round_trip():
    rng = random.Random(19)
    for n in range(1, 8):
        chi = ChiYPolynomial(
            tuple(Fraction(rng.randint(-30, 30)) for _ in range(n + 1))
        )
        expansion = expand_at_minus_one(chi)
        assert expansion.reconstruct() == chi


def test_A_accessor_bounds():
    expansion = MinusOneExpansion((Fraction(3), Fraction(-3), Fraction(1)))
    assert expansion.A(0) == 3
    assert expansion.A(1) == 1
    assert expansion.A(7) == 0  # beyond the stored degree
    with pytest.raises(ValueError):
        expansion.A(-1)


def test_integrality_violations():
    chi = ChiYPolynomial((Fraction(1), Fraction(1, 2), Fraction(2)))
    assert chi.integrality_violations() == [1]
    assert ChiYPolynomial((Fraction(1), Fraction(-1))).integrality_violations() == []


# -- pinned products ------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, (3, 2, 9, 2)),
        (5, (6, 5, 90, 50)),
        (7, (8, 7, 224, 147)),
    ],
)
def test_pinned_products_values(n, expected):
    pp = pinned_products(n)
    assert (pp.euler_m, pp.euler_d, pp.c1_cn1_m, pp.c1_cn2_d) == expected


def test_pinned_products_formulas():
    for n in range(2, 20):
        pp = pinned_products(n)
        assert pp.euler_m == n + 1
        assert pp.euler_d == n
        assert pp.c1_cn1_m == Fraction(n * (n + 1) ** 2, 2)
        assert pp.c1_cn2_d == Fraction((n - 1) * n**2, 2)


def test_pinned_products_requires_n_at_least_two():
    with pytest.raises(ValueError):
        pinned_products(1)


# -- Hodge diamond validation ----------------------------------------------------


def test_diamond_must_be_square():
    with pytest.raises(ValueError):
        HodgeDiamond([[1, 0], [0, 1], [0, 0]])


def test_diamond_conjugation_symmetry():
    with pytest.raises(ValueError):
        HodgeDiamond([[1, 5], [2, 1]])


def test_diamond_serre_duality():
    # h^{0,0} must equal h^{n,n}
    with pytest.raises(ValueError):
        HodgeDiamond([[2, 0], [0, 1]])


def test_diamond_rejects_negative_entries():
    with pytest.raises(ValueError):
        HodgeDiamond([[1, -1], [-1, 1]])


def test_diamond_from_text():
    text = """
    # diagonal diamond of the projective plane
    1 0 0
    0 1 0
    0 0 1
    """
    diamond = HodgeDiamond.from_text(text)
    assert diamond == HodgeDiamond.projective_space(2)
    assert diamond.n == 2


def test_diamond_from_text_rejects_ragged_rows():
    with pytest.raises(ValueError):
        HodgeDiamond.from_text("1 0\n0")


# -- oracles that share no code with the kernel ------------------------------------


def _symbolic_manifold(n):
    """The n-fold whose Chern entries are the generators c1..cn of one context."""
    names = tuple(f"c{i}" for i in range(1, n + 1))
    return ChernVector(MultivariatePolynomial.generators(names))


def _assert_serre_symmetric(chi):
    n = chi.n
    sign = -1 if n % 2 else 1
    for p in range(n + 1):
        assert chi.chi_p[p] == sign * chi.chi_p[n - p], (n, p)


def test_serre_symmetry_on_random_rational_vectors():
    # chi_p = (-1)^n chi_{n-p} holds formally, for any rational Chern data
    rng = random.Random(23)
    for n in range(2, 9):
        for _ in range(20):
            c = ChernVector(
                [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
            )
            _assert_serre_symmetric(chi_y_from_chern(c))


@pytest.mark.parametrize("n", range(2, 8))
def test_serre_symmetry_symbolic(n):
    _assert_serre_symmetric(chi_y_from_chern(_symbolic_manifold(n)))


def _locality_excess(coefficient, n):
    """Largest sum of the non-largest parts over the monomials of ``coefficient``,
    each monomial read as a partition of n with c_i giving parts of size i."""
    worst = 0
    for exps in coefficient.terms:
        parts = [i for i, e in enumerate(exps, start=1) for _ in range(e)]
        assert sum(parts) == n, (n, exps)
        worst = max(worst, n - max(parts))
    return worst


def test_libgober_wood_locality_symbolic():
    # a_{2k} and a_{2k+1} only involve Chern numbers whose parts other than
    # the largest sum to at most max(0, 2k - 1); the bound is attained.
    worst = [0] * 8
    for n in range(2, 8):
        coefficients = expand_at_minus_one(chi_y_from_chern(_symbolic_manifold(n))).coefficients
        for j, a in enumerate(coefficients):
            excess = _locality_excess(a, n)
            assert excess <= max(0, 2 * (j // 2) - 1), (n, j, str(a))
            worst[j] = max(worst[j], excess)
    assert worst == [0, 0, 1, 1, 3, 3, 5, 5]


# -- the weight table against the Newton recurrence ------------------------------


def _newton_chi_p(c):
    """chi_p = [x^n] ch(Omega^p) Td by the Newton recurrence on the power sums
    P_k = sum_i e^{-k root_i} of the alphabet {e^{-root}}; it shares no code
    with the partition weights of chi_y_from_chern."""
    n = c.n
    p = chern_to_power_sums(c)
    alphabet = [
        TruncatedSeries(
            n, [n] + [(-k) ** m * p[m - 1] / math.factorial(m) for m in range(1, n + 1)]
        )
        for k in range(1, n + 1)
    ]
    omega = [TruncatedSeries.one(n)] + power_sums_to_elementary(alphabet, n)
    todd = todd_class(c).coefficients
    return tuple(sum(w.coefficients[j] * todd[n - j] for j in range(n + 1)) for w in omega)


def test_weight_table_matches_newton_recurrence_on_random_rational_vectors():
    rng = random.Random(29)
    for n in range(1, 11):
        for _ in range(30):
            c = ChernVector(
                [Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)]
            )
            chi = chi_y_from_chern(c).chi_p
            assert all(isinstance(value, Fraction) for value in chi)
            assert chi == _newton_chi_p(c), (n, c)


_GENERATED = [(n, b) for n in range(3, 10) for b in Branch if b.valid_for(n)]


@lru_cache(maxsize=None)
def _generated_oracles(n, branch):
    """The symbolic M and D vectors that generate_system equates, each with
    its chi_p by the Newton recurrence."""
    chern_m, _ = unknown_chern_vector(n, branch)
    return tuple((c, _newton_chi_p(c)) for c in (chern_m, adjunction_chern(chern_m)))


@pytest.mark.parametrize("n, branch", _GENERATED, ids=lambda value: getattr(value, "value", value))
def test_weight_table_matches_newton_recurrence_on_generated_systems(n, branch):
    for c, oracle in _generated_oracles(n, branch):
        chi = chi_y_from_chern(c).chi_p
        assert all(isinstance(value, MultivariatePolynomial) for value in chi)
        assert chi == oracle, (n, branch, c.n)


@pytest.mark.parametrize("n, branch", _GENERATED, ids=lambda value: getattr(value, "value", value))
def test_even_coefficients_match_newton_recurrence_on_generated_systems(n, branch):
    # generate_system reads a_2, a_4, ... of M and a_0, a_2, ... of D, and
    # equates each with its P^n value a_j = (-1)^j C(n+1, j+1)
    (chern_m, oracle_m), (chern_d, oracle_d) = _generated_oracles(n, branch)
    read = {}
    for name, c, oracle, first in (("M", chern_m, oracle_m, 2), ("D", chern_d, oracle_d, 0)):
        expected = expand_at_minus_one(ChiYPolynomial(oracle)).coefficients
        wanted = range(first, c.n + 1, 2)
        a = minus_one_coefficients(c, wanted)
        assert list(a) == list(wanted)
        for j, value in a.items():
            assert isinstance(value, MultivariatePolynomial)
            assert value == expected[j], (n, branch, name, j)
            read[f"A_{j // 2}({name})"] = value - math.comb(c.n + 1, j + 1)
    for eq in generate_system(n, branch).equations:
        if eq.provenance != "alternating_sum(M)":
            assert eq.polynomial == read.pop(eq.provenance), eq.provenance
    assert not any(read.values())  # only identically zero equations are dropped


def test_even_coefficients_match_newton_recurrence_on_fractional_polynomials():
    # coefficients with denominators other than 1, and a rational entry whose
    # power sums mix with polynomial ones
    s, t = MultivariatePolynomial.generators(("s", "t"))
    c = ChernVector(
        [Fraction(1, 2), s / 3 + 1, Fraction(5, 7) * s * t - t / 2, s * s / 4, t - Fraction(2, 9)]
    )
    oracle = _newton_chi_p(c)
    expected = expand_at_minus_one(ChiYPolynomial(oracle)).coefficients
    a = minus_one_coefficients(c, range(0, 6, 2))
    assert a == {j: expected[j] for j in (0, 2, 4)}
    assert any(value.denominator != 1 for value in a.values())
    assert chi_y_from_chern(c).chi_p == oracle


@lru_cache(maxsize=None)
def _partitions(n):
    """Every partition of n as a non-increasing tuple, from all compositions."""
    if n == 0:
        return frozenset({()})
    return frozenset(
        tuple(sorted((m,) + rest, reverse=True))
        for m in range(1, n + 1)
        for rest in _partitions(n - m)
    )


def test_weight_table_is_keyed_by_the_partitions_of_n():
    counts = []
    for n in range(1, 16):
        table = _weight_table(n)
        denominator, weights = table
        assert set(weights) == _partitions(n)
        assert all(
            type(w) is tuple and len(w) == n + 1 and all(type(x) is int for x in w)
            for w in weights.values()
        )
        # one denominator for the whole dimension, sharing no factor with all numerators
        assert type(denominator) is int and denominator >= 1
        assert math.gcd(denominator, *(x for w in weights.values() for x in w)) == 1
        assert _weight_table(n) is table  # built once per dimension
        counts.append(len(weights))
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176]
