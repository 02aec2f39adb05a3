import json
import math
import pickle
from fractions import Fraction

import pytest

from chiy.chern import ChernVector, projective_space
from chiy.fujita import (
    Branch,
    EquationSystem,
    adjunction_chern,
    alternating_sum_check,
    dichotomy_residual,
    dichotomy_roots,
    forced_values,
    generate_system,
    parity_admissible,
    unknown_chern_vector,
)
from chiy.genus import a1_closed_form, chi_y_from_chern, expand_at_minus_one
from chiy.polynomials import MultivariatePolynomial
from chiy.solve import linear_reduce


# -- adjunction -----------------------------------------------------------------


def test_adjunction_on_projective_space():
    # the hyperplane P^{n-1} inside P^n: binomials map to binomials
    for n in range(2, 10):
        d = adjunction_chern(projective_space(n))
        assert d.n == n - 1
        assert [d.scalar(i) for i in range(n)] == [math.comb(n, i) for i in range(n)]


def test_adjunction_symbolic():
    variables = tuple(f"c{i}" for i in range(1, 6))
    c1, c2, c3, c4, c5 = MultivariatePolynomial.generators(variables)
    d = adjunction_chern(ChernVector([c1, c2, c3, c4, c5]))
    assert d.scalar(1) == c1 - 1
    assert d.scalar(2) == c2 - c1 + 1
    assert d.scalar(3) == c3 - c2 + c1 - 1
    assert d.scalar(4) == c4 - c3 + c2 - c1 + 1


def test_adjunction_requires_dimension_two():
    with pytest.raises(ValueError):
        adjunction_chern(ChernVector([2]))


def test_adjunction_identity_on_unknown_vectors():
    # c_i(M) = c_i(D) + c_{i-1}(D) for every i, on the symbolic vectors
    # that generate_system feeds through adjunction
    for n in range(3, 14):
        for branch in Branch:
            if not branch.valid_for(n):
                continue
            chern_m, _ = unknown_chern_vector(n, branch)
            chern_d = adjunction_chern(chern_m)
            assert chern_d.n == n - 1
            for i in range(1, n):
                assert chern_m.scalar(i) == chern_d.scalar(i) + chern_d.scalar(i - 1)


# -- dichotomy and parity ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(2, (3, Fraction(3, 2))), (4, (5, Fraction(5, 2))), (5, (6, 3)), (7, (8, 4))],
)
def test_dichotomy_roots_values(n, expected):
    assert dichotomy_roots(n).roots == expected


def test_dichotomy_roots_formula_and_residual():
    for n in range(2, 51):
        roots = dichotomy_roots(n)
        assert roots.roots == (Fraction(n + 1), Fraction(n + 1, 2))
        for root in roots.roots:
            assert dichotomy_residual(n, root) == 0
        # a non-root leaves a nonzero residual
        assert dichotomy_residual(n, Fraction(n + 3)) != 0


def test_dichotomy_residual_poles():
    with pytest.raises(ValueError):
        dichotomy_residual(5, Fraction(0))
    with pytest.raises(ValueError):
        dichotomy_residual(5, Fraction(1))


def test_integral_flags():
    assert dichotomy_roots(5).integral_flags() == (True, True)
    assert dichotomy_roots(4).integral_flags() == (True, False)


@pytest.mark.parametrize(
    "n, admissible",
    [(2, False), (3, True), (4, False), (5, False), (6, False), (7, True),
     (9, False), (11, True), (15, True), (19, True)],
)
def test_parity_admissible(n, admissible):
    assert parity_admissible(n) is admissible


def test_parity_admissible_is_n_mod_4_eq_3():
    for n in range(2, 51):
        assert parity_admissible(n) == (n % 4 == 3)


# -- forced values -----------------------------------------------------------------


@pytest.mark.parametrize("n, cm, cd", [(3, 12, 9), (7, 56, 49), (11, 132, 121)])
def test_forced_values(n, cm, cd):
    forced = forced_values(n)
    assert forced.c_top_minus_one_m == cm
    assert forced.c_top_minus_two_d == cd


def test_forced_values_formulas():
    for n in (3, 7, 11, 15, 19):
        forced = forced_values(n)
        assert forced.c_top_minus_one_m == n * (n + 1)
        assert forced.c_top_minus_two_d == n * n


def test_n3_collision_is_reported():
    assert forced_values(3).inconsistency is not None
    assert forced_values(7).inconsistency is None


def test_forced_values_rejects_other_dimensions():
    with pytest.raises(ValueError):
        forced_values(5)
    with pytest.raises(ValueError):
        forced_values(4)


# -- alternating sum ----------------------------------------------------------------


def test_alternating_sum_on_binomials():
    for n in range(1, 31):
        assert alternating_sum_check(projective_space(n))


def test_alternating_sum_fails_off_identity():
    assert not alternating_sum_check(ChernVector([3, 4]))


def test_alternating_sum_on_reduced_half_parameterization():
    # n = 5 half branch reduces to (3, c2, c2 + 23, 30, 6); the identity
    # holds in the free variable c2 identically
    system = generate_system(5, Branch.HALF)
    reduced = linear_reduce(system)
    vector, _ = unknown_chern_vector(5, Branch.HALF)
    entries = list(vector.entries)
    for sub in reduced.substitutions:
        entries = [
            e.substitute({sub.variable: sub.expression}) for e in entries
        ]
    assert alternating_sum_check(ChernVector(entries))


# -- system generation ----------------------------------------------------------------


def test_unknown_chern_vector_shape():
    vector, variables = unknown_chern_vector(5, Branch.HALF)
    assert variables == ("c2", "c3", "c4")
    assert vector.scalar(1) == 3
    assert vector.scalar(5) == 6
    assert vector.scalar(2).used_variables() == {"c2"}


def test_unknown_chern_vector_rejects_bad_branch():
    with pytest.raises(ValueError):
        unknown_chern_vector(4, Branch.HALF)
    with pytest.raises(ValueError):
        unknown_chern_vector(2, Branch.STANDARD)


def test_system_provenances_n5_half():
    system = generate_system(5, Branch.HALF)
    assert [eq.provenance for eq in system.equations] == [
        "A_0(D)",
        "A_1(M)",
        "A_1(D)",
        "A_2(M)",
        "A_2(D)",
        "alternating_sum(M)",
    ]
    assert system.variables == ("c2", "c3", "c4")
    assert system.n == 5 and system.branch is Branch.HALF


def test_n5_half_linear_consequences():
    reduced = linear_reduce(generate_system(5, Branch.HALF))
    by_var = {s.variable: s.expression for s in reduced.substitutions}
    c2 = MultivariatePolynomial.variable("c2", ("c2", "c3", "c4"))
    assert by_var["c4"] == 30
    assert by_var["c3"] == c2 + 23
    assert reduced.free_variables == ("c2",)


def test_n5_half_quadratic_reduction():
    # A_2(M) becomes proportional to c2^2 - 2 c2 - 147 after substitution
    reduced = linear_reduce(generate_system(5, Branch.HALF))
    residual = {r.provenance: r.polynomial for r in reduced.residual}
    c2 = MultivariatePolynomial.variable("c2", ("c2", "c3", "c4"))
    assert residual["A_2(M)"] * 80 == c2 * c2 - 2 * c2 - 147


def test_binomial_satisfies_standard_systems():
    for n in range(3, 10):
        system = generate_system(n, Branch.STANDARD)
        binomial = {
            f"c{i}": Fraction(math.comb(n + 1, i)) for i in range(2, n)
        }
        assert system.satisfied_by(binomial), f"failed at n={n}"


def _rational_rank(polys) -> int:
    """Rank over Q of the polynomials as vectors of monomial coefficients."""
    monomials = sorted({e for p in polys for e in p.terms})
    rows = [[p.terms.get(e, Fraction(0)) for e in monomials] for p in polys]
    rank = 0
    for col in range(len(monomials)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("n, rank", [(5, 4), (7, 6), (9, 8)])
def test_odd_coefficients_lie_in_the_span_of_the_system(n, rank, branch):
    # Serre symmetry chi_p = (-1)^n chi_{n-p} makes every odd a_j a rational
    # combination of the even A_k, so equating the odd a_j adds no constraint
    system = generate_system(n, branch)
    chern_m, _ = unknown_chern_vector(n, branch)
    odd = []
    for c, dim in ((chern_m, n), (adjunction_chern(chern_m), n - 1)):
        a = expand_at_minus_one(chi_y_from_chern(c)).coefficients
        target = expand_at_minus_one(chi_y_from_chern(projective_space(dim))).coefficients
        odd.extend(a[j] - target[j] for j in range(1, dim + 1, 2))
    generated = [eq.polynomial for eq in system.equations]
    assert _rational_rank(generated) == rank
    assert _rational_rank(generated + odd) == rank


def test_generated_a1_equation_matches_closed_form():
    for n, branch in [(5, Branch.HALF), (7, Branch.HALF), (6, Branch.STANDARD)]:
        system = generate_system(n, branch)
        a1_m = next(
            eq.polynomial for eq in system.equations if eq.provenance == "A_1(M)"
        )
        vector, _ = unknown_chern_vector(n, branch)
        target = a1_closed_form(projective_space(n))
        closed = a1_closed_form(vector) - target
        assert a1_m == closed


def test_system_requires_n_at_least_three():
    with pytest.raises(ValueError):
        generate_system(2, Branch.STANDARD)


def test_system_json_round_trip():
    system = generate_system(5, Branch.HALF)
    data = system.to_json_dict()
    back = EquationSystem.from_json_dict(data)
    assert back == system
    # and through an actual JSON string
    back2 = EquationSystem.from_json_dict(json.loads(json.dumps(data)))
    assert back2 == system
    # stored systems from before the schema lost its "mode" key still load
    assert EquationSystem.from_json_dict({**data, "mode": "ak"}) == system


def test_pickle_round_trip():
    x, y = MultivariatePolynomial.generators(("x", "y"))
    values = [
        MultivariatePolynomial.zero(("x", "y")),
        MultivariatePolynomial.constant(-4, ("x", "y")),
        Fraction(3, 7) * x * y - Fraction(5, 2) * y + Fraction(1, 6),
        generate_system(7, Branch.HALF),
    ]
    for value in values:
        assert pickle.loads(pickle.dumps(value)) == value


def test_residuals_at_binomial_point():
    system = generate_system(5, Branch.STANDARD)
    point = {"c2": 15, "c3": 20, "c4": 15}
    assert all(r == 0 for r in system.residuals(point))
    off = {"c2": 15, "c3": 21, "c4": 15}
    assert any(r != 0 for r in system.residuals(off))
