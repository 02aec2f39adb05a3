import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from chiy.fujita import Branch, Equation, EquationSystem, generate_system
from chiy.polynomials import MultivariatePolynomial
from chiy import solve
from chiy.solve import (
    EnumerationBudget,
    SolverConfig,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_SOLUTION,
    VERDICT_SOLUTIONS,
    bounded_enumerate,
    classify,
    linear_reduce,
    solve_system,
    univariate_integer_roots,
    verify_certificate,
)

from planted import planted_system

X, Y = MultivariatePolynomial.generators(("x", "y"))


def system_of(*polys, variables=("x", "y")):
    return EquationSystem(
        tuple(variables),
        tuple(Equation(f"eq{i}", p) for i, p in enumerate(polys)),
    )


# -- linear reduction -----------------------------------------------------------


def test_linear_reduce_unique_point():
    reduced = linear_reduce(system_of(X + Y - 3, X - Y - 1))
    assert reduced.inconsistency is None
    assert reduced.free_variables == ()
    point = reduced.extend({})
    assert point == {"x": 2, "y": 1}


def test_linear_reduce_records_combinations():
    reduced = linear_reduce(system_of(X + Y - 3, X - Y - 1))
    for sub in reduced.substitutions:
        # replay: the recorded combination must reproduce var - expression
        acc = MultivariatePolynomial.zero(("x", "y"))
        for index, mult in sub.combination:
            acc = acc + mult * [X + Y - 3, X - Y - 1][index]
        var = MultivariatePolynomial.variable(sub.variable, ("x", "y"))
        assert acc == var - sub.expression


def test_linear_reduce_iterates_after_substitution():
    # y - 2 linearizes x*y - 2*x - 3 into nothing new, but x*x needs pass 2
    system = system_of(Y - 2, X * Y - 2 * X + Y - 2)
    reduced = linear_reduce(system)
    assert reduced.inconsistency is None
    assert [s.variable for s in reduced.substitutions] == ["y"]
    assert reduced.residual == ()


def test_linear_reduce_finds_inconsistency():
    reduced = linear_reduce(system_of(X + Y - 1, X + Y - 2))
    assert reduced.inconsistency is not None
    assert reduced.inconsistency["kind"] == "linear_inconsistency"


def test_linear_reduce_prefers_late_pivots():
    # with one equation in two unknowns, the later variable becomes the pivot
    reduced = linear_reduce(system_of(X + Y - 5))
    assert [s.variable for s in reduced.substitutions] == ["y"]
    assert reduced.free_variables == ("x",)


def test_random_consistent_linear_systems_recover_solution():
    rng = random.Random(31)
    names = ("x", "y", "z")
    gens = MultivariatePolynomial.generators(names)
    for _ in range(60):
        point = {name: rng.randint(-20, 20) for name in names}
        equations = []
        for _ in range(rng.choice((3, 4, 5))):
            coeffs = [rng.randint(-5, 5) for _ in names]
            constant = -sum(a * point[name] for a, name in zip(coeffs, names))
            poly = MultivariatePolynomial.constant(constant, names)
            for a, g in zip(coeffs, gens):
                poly = poly + a * g
            equations.append(poly)
        system = system_of(*equations, variables=names)
        reduced = linear_reduce(system)
        assert reduced.inconsistency is None
        free = dict.fromkeys(reduced.free_variables)
        for name in free:
            free[name] = point[name]
        recovered = reduced.extend(free)
        assert all(recovered[name] == point[name] for name in reduced.free_variables or [])
        # the construction point always satisfies; pivots must agree with it
        # whenever the system pins them uniquely
        assert system.satisfied_by(recovered)


# -- univariate integer roots ------------------------------------------------------


def test_quadratic_with_two_roots():
    analysis = univariate_integer_roots(X * X - 5 * X + 6)
    assert analysis.roots == (2, 3)
    assert analysis.evidence["type"] == "discriminant"


def test_linear_root():
    assert univariate_integer_roots(X - 7).roots == (7,)
    assert univariate_integer_roots(2 * X - 7).roots == ()


def test_root_free_quadratic_has_nonsquare_discriminant():
    analysis = univariate_integer_roots(X * X - 2 * X - 147)
    assert analysis.roots == ()
    assert analysis.evidence["discriminant"] == "592"
    assert analysis.evidence["is_square"] is False


def test_negative_discriminant():
    analysis = univariate_integer_roots(X * X + 1)
    assert analysis.roots == ()
    assert analysis.evidence["is_square"] is False


def test_rational_coefficients_are_cleared():
    analysis = univariate_integer_roots(X / 80 * X - X / 40 - Fraction(147, 80))
    assert analysis.primitive_coefficients == (-147, -2, 1)
    assert analysis.scale == 80
    assert analysis.roots == ()


def test_cubic_by_divisor_enumeration():
    analysis = univariate_integer_roots((X - 1) * (X - 2) * (X + 6))
    assert analysis.roots == (-6, 1, 2)
    assert analysis.evidence["type"] == "divisors"


def test_zero_root_multiplicity():
    analysis = univariate_integer_roots(X ** 3 - 4 * X)
    assert analysis.roots == (-2, 0, 2)
    assert analysis.evidence["zero_root_multiplicity"] == 1


def _random_integer_polynomial(rng):
    """Integer coefficients, lowest degree first, of degree 1..5: a product of
    planted linear factors (x - r), zero included, and a random cofactor."""
    degree = rng.randint(1, 5)
    planted = [rng.randint(-3, 3) for _ in range(rng.randint(0, degree))]
    coeffs = [rng.randint(-6, 6) for _ in range(degree - len(planted))]
    coeffs.append(rng.choice([-3, -2, -1, 1, 2, 3]))
    for r in planted:
        shifted = [0] + coeffs
        coeffs = [a - r * b for a, b in zip(shifted, coeffs + [0])]
    return coeffs


def test_integer_roots_match_brute_force_scan():
    rng = random.Random(20261018)
    root_free = 0
    for _ in range(200):
        ints = _random_integer_polynomial(rng)
        scale = Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.randint(1, 9))
        poly = MultivariatePolynomial(
            ("x",), {(k,): scale * c for k, c in enumerate(ints) if c}
        )
        # every integer root other than 0 divides the lowest nonzero coefficient
        bound = abs(next(c for c in ints if c))
        expected = tuple(
            r for r in range(-bound, bound + 1)
            if sum(c * r**k for k, c in enumerate(ints)) == 0
        )
        assert univariate_integer_roots(poly).roots == expected, ints

        system = system_of(poly, variables=("x",))
        report = solve_system(system)
        if expected:
            assert report.verdict == VERDICT_SOLUTIONS
            assert tuple(s["x"] for s in report.solutions) == expected
            continue
        root_free += 1
        assert report.verdict == VERDICT_NO_SOLUTION
        if len(ints) > 2:  # linear equations are settled by linear reduction
            assert report.certificate["kind"] == "root_free"
        assert verify_certificate(system, report.certificate)
    assert root_free > 20


def test_rejects_zero_and_multivariate():
    with pytest.raises(ValueError):
        univariate_integer_roots(MultivariatePolynomial.zero(("x", "y")))
    with pytest.raises(ValueError):
        univariate_integer_roots(X + Y)


# -- bounded enumeration ------------------------------------------------------------


def test_enumerate_square_equation():
    system = system_of(X * X - 4, variables=("x",))
    out = bounded_enumerate(system, {"x": (-10, 10)})
    assert [a["x"] for a in out.assignments] == [-2, 2]


def test_enumerate_respects_box():
    system = system_of(X * X - 4, variables=("x",))
    out = bounded_enumerate(system, {"x": (0, 10)})
    assert [a["x"] for a in out.assignments] == [2]


def test_enumerate_matches_naive_scan():
    rng = random.Random(41)
    for _ in range(15):
        system, expected, bounds = planted_system(rng)
        out = bounded_enumerate(system, bounds)
        points = [
            tuple(a[name] for name in system.variables) for a in out.assignments
        ]
        naive = [
            tuple(p[name] for name in system.variables) for p in expected
        ]
        assert points == naive


def test_enumerate_budget():
    system = system_of(X * X * X - Y * Y - 7)
    with pytest.raises(EnumerationBudget):
        bounded_enumerate(system, {"x": (-10**5, 10**5), "y": (-10**5, 10**5)},
                          max_scan=1000)


def test_enumerate_requires_bounds_for_all_variables():
    with pytest.raises(ValueError):
        bounded_enumerate(system_of(X + Y), {"x": (0, 1)})


def _box_scan(system, bounds):
    """Every point of the box at which all equations vanish, by a plain scan
    of the whole box over the cleared integer terms."""
    equations = [eq.polynomial.integer_terms() for eq in system.equations]
    names = system.variables
    points = []
    for point in itertools.product(*(range(bounds[v][0], bounds[v][1] + 1) for v in names)):
        if all(
            sum(num * math.prod(v**e for v, e in zip(point, exps)) for num, exps in terms) == 0
            for terms in equations
        ):
            points.append(dict(zip(names, point)))
    return points


def _oracle_cases():
    """``id -> (system, bounds, {forced solved variable: visited})``; the key
    ``...`` is the solver's own choice and ``None`` forces a scan without a
    solved variable.  Each ``visited`` pins the number of in-bound candidates
    the scan checks: at each driver point they are the zeros of the first
    equation of lowest degree in the solved variable, or its whole range
    where that equation vanishes identically or no variable is solved."""
    x, y = MultivariatePolynomial.generators(("x", "y"))
    (x1,) = MultivariatePolynomial.generators(("x",))
    x3, y3, z3 = MultivariatePolynomial.generators(("x", "y", "z"))
    w4, x4, y4, z4 = MultivariatePolynomial.generators(("w", "x", "y", "z"))
    n7 = {b: linear_reduce(generate_system(7, b)).residual_system() for b in Branch}
    cases = {
        # contains the binomial vector (28, 56, 70)
        "n7-standard": (
            n7[Branch.STANDARD], {"c2": (20, 40), "c3": (50, 60), "c4": (60, 80)},
            {"c2": 1, "c3": 1, "c4": 1, None: 4851},
        ),
        # the leading coefficient of A_2(M) in c4 vanishes on c3 = 5 c2 - 16
        "n7-half": (
            n7[Branch.HALF], {"c2": (0, 15), "c3": (-16, 59), "c4": (-4, 4)},
            {"c2": 0, "c3": 0, "c4": 0, None: 10944},
        ),
        # solving y, the first equation vanishes at x = 2, so all 21 values
        # of y are candidates there; solving x, it vanishes at y = 1 and the
        # cubic is a guard
        "vanishing-lead-cubic": (
            system_of((x - 2) * (y - 1), y**3 - 7 * y + 6),
            {"x": (-3, 6), "y": (-10, 10)}, {"x": 12, "y": 30, None: 210},
        ),
        # the quadratic in y turns linear at x = 2
        "vanishing-lead-quadratic": (
            system_of((x - 2) * y * y + y - x),
            {"x": (-6, 6), "y": (-30, 30)}, {"x": 2, "y": 2, None: 793},
        ),
        # at x = 2 the first equation is the nonzero constant -1
        "vanishing-lead-constant": (
            system_of((x - 2) * y + x - 3, x * y - 6),
            {"x": (-8, 8), "y": (-8, 8)}, {"x": 2, "y": 2, None: 289},
        ),
        # solving z, the first equation is a guard on the drivers x and y
        "pure-driver": (
            system_of(x3 * x3 - y3, z3 - x3 * y3, variables="xyz"),
            {"x": (-4, 4), "y": (-5, 20), "z": (-70, 70)}, {...: 9},
        ),
        # two outer drivers, whose parts are computed once per (w, x, y); the
        # first equation vanishes at the four points w = x, w y = 2, where
        # all 41 values of z are candidates
        "three-drivers": (
            system_of((w4 - x4) * z4 + w4 * y4 - 2, z4 * z4 - w4 * w4 - x4 * x4 - y4 * y4 + 2,
                      variables="wxyz"),
            {"w": (-4, 4), "x": (-4, 4), "y": (-4, 4), "z": (-20, 20)}, {...: 486},
        ),
        # no variable has degree <= 2, so the whole box is scanned
        "cubic-everywhere": (
            system_of(x**3 - y**3 + x * y - 1), {"x": (-10, 10), "y": (-10, 10)}, {...: 441},
        ),
        # no variable has degree <= 2; y takes its whole range, but only at
        # x = 2, the one value the guard x^3 - 8 lets through
        "cubic-guard": (
            system_of(x**3 - 8, x**3 + y**3 - 9), {"x": (-5, 5), "y": (-5, 5)}, {...: 11},
        ),
        # the box of no variables is the one empty point
        "no-variables": (system_of(variables=()), {}, {...: 1}),
        "zero-drivers": (
            system_of(x1 * x1 - 4, variables="x"), {"x": (-10, 10)}, {...: 2, None: 21},
        ),
        "one-variable-cubic": (
            system_of((x1 - 3) * (x1 + 5) * x1, variables="x"), {"x": (-10, 10)}, {...: 21},
        ),
    }
    for seed, visited in ((1, 2), (2, 1), (3, 1), (4, 1), (5, 4)):
        system, _, bounds = planted_system(random.Random(seed))
        cases[f"planted-{seed}"] = (system, bounds, {...: visited})
    return cases


@pytest.fixture(scope="module")
def oracle_cases():
    return {name: (system, bounds, visits, _box_scan(system, bounds))
            for name, (system, bounds, visits) in _oracle_cases().items()}


@pytest.mark.parametrize("name", list(_oracle_cases()))
def test_enumerate_agrees_with_a_plain_box_scan(oracle_cases, monkeypatch, name):
    system, bounds, visits, expected = oracle_cases[name]
    choose = solve._choose_solved_variable
    for solved, visited in visits.items():
        if solved is not ...:
            monkeypatch.setattr(solve, "_choose_solved_variable", lambda *args: solved)
        out = bounded_enumerate(system, bounds)
        monkeypatch.setattr(solve, "_choose_solved_variable", choose)
        assert list(out.assignments) == expected, solved
        assert out.visited == visited, solved


def test_variable_names_never_enter_generated_code():
    # an unused name once went verbatim into a generated lambda header, where
    # it ran as a default-argument expression (here: ZeroDivisionError)
    payload = "y=[].__class__.__mro__[1].__subclasses__().__len__()//0"
    square = [
        {"coeff_num": "1", "coeff_den": "1", "exponents": [2, 0]},
        {"coeff_num": "-4", "coeff_den": "1", "exponents": [0, 0]},
    ]
    system = EquationSystem.from_json_dict(
        {"n": None, "branch": None, "variables": ["x", payload],
         "equations": [{"provenance": "eq0", "monomials": square}]}
    )
    bounds = {"x": (-5, 5), payload: (0, 1)}
    expected = [{"x": x, payload: p} for x in (-2, 2) for p in (0, 1)]
    assert list(bounded_enumerate(system, bounds).assignments) == expected
    assert list(solve_system(system, SolverConfig(bounds=bounds)).solutions) == expected
    with pytest.raises(ValueError, match="explicit bounds are required"):
        solve_system(system)
    # a used name goes through the residue search and its replay
    x, y = MultivariatePolynomial.generators(("x", payload))
    system = system_of(x * x + y * y - 3, variables=("x", payload))
    report = solve_system(system, SolverConfig(bounds={"x": (-500, 500), payload: (-500, 500)}))
    assert report.certificate["modulus"] == 4
    assert verify_certificate(system, report.certificate)


def test_variables_named_like_generated_code_names():
    names = ("range", "zip", "_found")
    r, z, f = MultivariatePolynomial.generators(names)
    system = system_of(r * r - 4, z - r * f, f * f - 9, variables=names)
    bounds = {"range": (-5, 5), "zip": (-10, 10), "_found": (-5, 5)}
    expected = [
        {"range": a, "zip": a * b, "_found": b} for a in (-2, 2) for b in (-3, 3)
    ]
    expected.sort(key=lambda p: tuple(p[v] for v in names))
    assert list(bounded_enumerate(system, bounds).assignments) == expected
    report = solve_system(system, SolverConfig(bounds=bounds))
    assert report.verdict == VERDICT_SOLUTIONS
    assert list(report.solutions) == expected


def test_negative_scan_budget_is_rejected():
    with pytest.raises(ValueError, match="max_scan must be at least 0"):
        SolverConfig(max_scan=-5)
    assert SolverConfig(max_scan=0).max_scan == 0


# -- solve_system verdicts -----------------------------------------------------------


def test_unique_integer_point():
    report = solve_system(system_of(X + Y - 3, X - Y - 1))
    assert report.verdict == VERDICT_SOLUTIONS
    assert report.solutions == ({"x": 2, "y": 1},)


def test_forced_nonintegral_value():
    report = solve_system(system_of(2 * X - 1, Y - 4))
    assert report.verdict == VERDICT_NO_SOLUTION
    assert report.certificate["kind"] == "nonintegral_value"
    assert report.certificate["value"] == "1/2"


def test_linear_inconsistency_report():
    report = solve_system(system_of(X + Y - 1, X + Y - 2))
    assert report.verdict == VERDICT_NO_SOLUTION
    assert report.certificate["kind"] == "linear_inconsistency"


def test_single_variable_intersection():
    report = solve_system(system_of((X - 2) * (X - 3), (X - 3) * (X - 5), Y - X))
    assert report.verdict == VERDICT_SOLUTIONS
    assert report.solutions == ({"x": 3, "y": 3},)


def test_single_variable_exhaustion():
    report = solve_system(system_of((X - 2) * (X - 3), (X - 4) * (X - 5), Y - X))
    assert report.verdict == VERDICT_NO_SOLUTION
    assert report.certificate["kind"] == "candidate_exhaustion"
    assert report.certificate["candidates"] == []


def test_root_free_certificate():
    report = solve_system(system_of(X * X - 2 * X - 147, Y - 1))
    assert report.verdict == VERDICT_NO_SOLUTION
    certificate = report.certificate
    assert certificate["kind"] == "root_free"
    assert certificate["integer_coefficients"] == ["-147", "-2", "1"]
    assert certificate["evidence"]["discriminant"] == "592"


def test_enumeration_path_with_bounds():
    system = system_of(X * X - 4, Y * Y - 9)
    config = SolverConfig(bounds={"x": (-10, 10), "y": (-10, 10)})
    report = solve_system(system, config)
    assert report.verdict == VERDICT_SOLUTIONS
    points = [(s["x"], s["y"]) for s in report.solutions]
    assert points == [(-2, -3), (-2, 3), (2, -3), (2, 3)]


def test_budget_exceeded_is_inconclusive():
    system = system_of(X * X * X - Y * Y - 7)
    config = SolverConfig(bounds={"x": (-10**4, 10**4), "y": (-10**4, 10**4)},
                          max_scan=100)
    report = solve_system(system, config)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("budget" in note or "exceeds" in note for note in report.notes)


def test_bounds_required_without_dimension_metadata():
    with pytest.raises(ValueError):
        solve_system(system_of(X * X - 4, Y * Y - 9))


def test_bounds_for_unknown_variables_are_rejected():
    bounds = {"x": (-5, 5), "y": (-5, 5), "z": (0, 1)}
    with pytest.raises(ValueError, match="unknown variables: z"):
        solve_system(system_of(X * X - 4, Y * Y - 9), SolverConfig(bounds=bounds))


def test_bounds_for_eliminated_variables_are_accepted():
    config = SolverConfig(bounds={"x": (-10, 10), "y": (-10, 10)})
    report = solve_system(system_of(X * X - 4, Y - X), config)
    assert report.verdict == VERDICT_SOLUTIONS
    assert report.solutions == ({"x": -2, "y": -2}, {"x": 2, "y": 2})


@pytest.mark.parametrize("root, verdict", [
    (3, VERDICT_SOLUTIONS),
    (30, VERDICT_INCONCLUSIVE),
])
def test_root_search_overflow_is_noted(root, verdict):
    # the constant term, 1e12 + 7 times the root, is beyond divisor enumeration
    poly = (X - root) * (X * X + 10**12 + 7)
    system = system_of(poly, variables=("x",))
    report = solve_system(system, SolverConfig(bounds={"x": (-10, 10)}))
    assert report.verdict == verdict
    assert report.solutions == (({"x": 3},) if root == 3 else ())
    assert report.notes[0] == (
        f"root analysis refused: |constant| = {(10**12 + 7) * root} beyond "
        "divisor enumeration limit; fell back to bounded enumeration"
    )


def test_nonintegral_forced_point_is_inconclusive():
    # x = y/2 from the first equation, then y = 3: the only point is (3, 3/2)
    y, x = MultivariatePolynomial.generators(("y", "x"))
    system = system_of(2 * x - y, x * y - y * y / 2 + y - 3, variables=("y", "x"))
    report = solve_system(system)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.solutions == ()
    assert "not integral" in report.notes[0]


def test_solutions_outside_the_requested_bounds_are_dropped():
    # root analysis finds both roots of x^2 - 4 whatever the box
    system = system_of(X * X - 4, variables=("x",))
    assert solve_system(system).solutions == ({"x": -2}, {"x": 2})
    report = solve_system(system, SolverConfig(bounds={"x": (0, 10)}))
    assert report.verdict == VERDICT_SOLUTIONS
    assert report.solutions == ({"x": 2},)
    assert report.notes == ("dropped 1 of 2 solutions outside the bounds",)


# -- planted-system recovery ----------------------------------------------------------


def test_planted_systems_recovered_exactly():
    rng = random.Random(53)
    for _ in range(40):
        system, expected, bounds = planted_system(rng)
        report = solve_system(system, SolverConfig(bounds=bounds))
        assert report.verdict == VERDICT_SOLUTIONS
        assert list(report.solutions) == expected


# -- classification of the (M, D) systems -----------------------------------------------


def test_classify_n5_half_is_excluded():
    report = classify(5, Branch.HALF)
    assert report.verdict == VERDICT_NO_SOLUTION
    assert report.certificate["kind"] == "root_free"
    assert report.certificate["evidence"]["discriminant"] == "592"
    assert report.certificate["provenance"] == "A_2(M)"


def test_classify_n5_standard_finds_binomials():
    report = classify(5, Branch.STANDARD)
    assert report.verdict == VERDICT_SOLUTIONS
    assert {"c2": 15, "c3": 20, "c4": 15} in report.solutions


def test_classify_n3_half_linear_collision():
    report = classify(3, Branch.HALF)
    assert report.verdict == VERDICT_NO_SOLUTION
    assert report.certificate["kind"] == "linear_inconsistency"


@pytest.fixture(scope="module")
def n7_half_report():
    return classify(7, Branch.HALF)


def test_classify_n7_half_is_certified_or_inconclusive(n7_half_report):
    report = n7_half_report
    # the verdict is recorded, not asserted; whatever it is must be certified
    if report.verdict == VERDICT_NO_SOLUTION:
        assert verify_certificate(generate_system(7, Branch.HALF), report.certificate)
    elif report.verdict == VERDICT_SOLUTIONS:
        system = generate_system(7, Branch.HALF)
        assert all(system.satisfied_by(s) for s in report.solutions)
    else:
        assert report.bounds is not None
        assert report.solutions == ()


def test_classify_rejects_even_half():
    with pytest.raises(ValueError):
        classify(4, Branch.HALF)


# -- certificates and reports ------------------------------------------------------------


def test_certificate_replay_through_json():
    report = classify(5, Branch.HALF)
    parsed = json.loads(report.to_json())
    system = generate_system(5, Branch.HALF)
    assert verify_certificate(system, parsed["certificate"])


def test_certificate_rejects_tampering():
    report = classify(5, Branch.HALF)
    system = generate_system(5, Branch.HALF)
    good = json.loads(report.to_json())["certificate"]

    bad = json.loads(json.dumps(good))
    bad["integer_coefficients"][0] = "-146"
    assert not verify_certificate(system, bad)

    bad = json.loads(json.dumps(good))
    bad["evidence"]["discriminant"] = "593"
    assert not verify_certificate(system, bad)

    bad = json.loads(json.dumps(good))
    bad["substitutions"][0]["expression"] = [
        {"coeff_num": "31", "coeff_den": "1", "exponents": [0, 0, 0]}
    ]
    assert not verify_certificate(system, bad)

    # false evidence on a true claim: replay recomputes every field
    assert good["evidence"] == {"zero_root_multiplicity": 0, "type": "discriminant",
                                "discriminant": "592", "is_square": False}
    edits = [
        lambda c: c["evidence"].update(is_square=True),
        lambda c: c["evidence"].pop("zero_root_multiplicity"),
        lambda c: c["evidence"].update(note="extra"),
        lambda c: c.update(
            scale="-" + c["scale"],
            integer_coefficients=[str(-int(k)) for k in c["integer_coefficients"]],
        ),
    ]
    for edit in edits:
        bad = json.loads(json.dumps(good))
        edit(bad)
        assert not verify_certificate(system, bad), bad

    # a cubic settled by the divisors of its constant term
    x = MultivariatePolynomial.variable("x", ("x",))
    cubic = system_of(x ** 3 + 2 * x + 7, variables=("x",))
    good = solve_system(cubic).certificate
    assert good["evidence"]["type"] == "divisors"
    assert verify_certificate(cubic, good)
    bad = json.loads(json.dumps(good))
    bad["evidence"]["constant"] = "8"
    assert not verify_certificate(cubic, bad)


def test_certificate_replay_checks_provenance():
    system = generate_system(5, Branch.HALF)
    bad = json.loads(classify(5, Branch.HALF).to_json())["certificate"]
    bad["provenance"] = "A_9(Z)"
    assert not verify_certificate(system, bad)

    system = system_of((X - 2) * (X - 3), (X - 4) * (X - 5), Y - X)
    certificate = solve_system(system).certificate
    assert certificate["kind"] == "candidate_exhaustion"
    assert verify_certificate(system, certificate)
    certificate["equations"][1]["provenance"] = "eq0"
    assert not verify_certificate(system, certificate)


def test_exhaustion_roots_must_share_the_variable():
    # x in {2, 3} and y in {4, 7} intersect to nothing, yet (2, 4) solves it
    system = system_of((X - 2) * (X - 3), (Y - 4) * (Y - 7))
    forged = {
        "kind": "candidate_exhaustion",
        "variable": "x",
        "equations": [
            {"source_index": 0, "provenance": "eq0", "roots": ["2", "3"]},
            {"source_index": 1, "provenance": "eq1", "roots": ["4", "7"]},
        ],
        "candidates": [],
        "substitutions": [],
    }
    assert system.satisfied_by({"x": 2, "y": 4})
    assert not verify_certificate(system, forged)


@pytest.mark.parametrize("second, kind", [
    (2 * X * Y - 2 * X - 1, "nonintegral_value"),  # y = 2 leaves 2x - 1
    (X * Y - 2 * X + 1, "linear_inconsistency"),  # y = 2 leaves 1
], ids=["nonintegral_value", "linear_inconsistency"])
def test_second_pass_certificates(second, kind):
    system = system_of(Y - 2, second)
    certificate = solve_system(system).certificate
    assert certificate["kind"] == kind
    assert certificate["pass"] == 2
    assert verify_certificate(system, certificate)
    if kind == "nonintegral_value":
        assert (certificate["variable"], certificate["value"]) == ("x", "1/2")
    # the combination only holds after the first pass's substitution
    certificate["pass"] = 1
    assert not verify_certificate(system, certificate)


def test_certificate_rejects_garbage():
    system = generate_system(5, Branch.HALF)
    assert not verify_certificate(system, None)
    assert not verify_certificate(system, {})
    assert not verify_certificate(system, {"kind": "root_free"})
    assert not verify_certificate(system, {"kind": "made_up"})
    # an exhaustion over no equations proves nothing, even where it would be true
    empty = {"kind": "candidate_exhaustion", "variable": "c2", "equations": [],
             "candidates": [], "substitutions": []}
    assert not verify_certificate(system, empty)
    assert not verify_certificate(generate_system(5, Branch.STANDARD), empty)
    # an exponent beyond the packed-key limit is malformed input, not a crash
    huge = json.loads(classify(5, Branch.HALF).to_json())["certificate"]
    huge["substitutions"][1]["expression"][0]["exponents"] = [70000, 0, 0]
    assert not verify_certificate(system, huge)


def test_inconsistency_certificate_replay():
    report = classify(3, Branch.HALF)
    system = generate_system(3, Branch.HALF)
    assert verify_certificate(system, json.loads(report.to_json())["certificate"])
    bad = json.loads(report.to_json())["certificate"]
    bad["constant"] = "0"
    assert not verify_certificate(system, bad)


# -- local obstruction -------------------------------------------------------------------


def _residue_points(system, modulus):
    """Every point mod ``modulus`` at which all cleared equations of the
    system vanish, by a plain scan over the whole residue box."""
    equations = sorted(
        ([(num % modulus, exps) for num, exps in eq.polynomial.integer_terms()]
         for eq in system.equations),
        key=len,
    )
    points = []
    for point in itertools.product(range(modulus), repeat=len(system.variables)):
        for terms in equations:
            total = 0
            for num, exps in terms:
                for value, e in zip(point, exps):
                    num *= value**e
                total += num
            if total % modulus:
                break
        else:
            points.append(point)
    return points


def test_classify_n7_half_is_a_local_obstruction(n7_half_report):
    report = n7_half_report
    assert report.verdict == VERDICT_NO_SOLUTION
    assert report.certificate["kind"] == "local_obstruction"
    assert report.certificate["modulus"] == 9
    # the proof covers every integer point, so no box and no visits
    assert report.bounds is None
    assert report.visited == 0
    assert report.notes == ()
    certificate = json.loads(report.to_json())["certificate"]
    assert verify_certificate(generate_system(7, Branch.HALF), certificate)


@pytest.mark.parametrize("n, modulus", [(7, 9), (5, 5)])
def test_local_obstruction_agrees_with_a_plain_residue_scan(n, modulus):
    system = generate_system(n, Branch.HALF)
    # the original, unreduced system has no zero mod the modulus, and one mod 3
    assert _residue_points(system, modulus) == []
    assert _residue_points(system, 3)


def _residue_oracle_systems():
    x, y, z = MultivariatePolynomial.generators(("x", "y", "z"))
    yield from (
        pytest.param(linear_reduce(generate_system(n, branch)).residual_system(),
                     id=f"residual-{n}-{branch.value}")
        for n in (5, 7)
        for branch in Branch
    )
    yield pytest.param(system_of(X * X + Y * Y - 3), id="sum-of-two-squares")
    yield pytest.param(system_of(X * Y - 1000003), id="prime-product")
    # one equation whose last variable is each of x, y, z; mod 2 the first two
    # force x = y = 1 and the third then has no zero
    yield pytest.param(
        system_of(x * x + x, x * y - 2 * y * y + 3, x * y * z + z**3 - 6 * x + 1,
                  variables=("x", "y", "z")),
        id="equation-at-each-depth",
    )


@pytest.mark.parametrize("system", _residue_oracle_systems())
def test_local_obstruction_matches_a_plain_residue_scan_per_modulus(system):
    polys = [eq.polynomial for eq in system.equations]
    for q in solve._LOCAL_MODULI:
        obstructed = solve._local_obstruction(polys, system.variables, (q,)) == q
        assert obstructed == (_residue_points(system, q) == []), q


def test_residue_search_stops_at_the_nesting_limit():
    # Python 3.10-3.12 compile at most 20 nested loops: 20 variables are
    # searched, 21 never are
    names = tuple(f"x{i}" for i in range(21))
    gens = MultivariatePolynomial.generators(names)
    odd = 2 * gens[0] * gens[0] - 1  # no zero mod 2, found at the first loop
    assert solve._local_obstruction([odd], names[:20], (2,)) == 2

    squares = MultivariatePolynomial.zero(names)
    for g in gens[1:]:
        squares = squares + g * g
    system = EquationSystem(names, (Equation("odd", 2 * gens[0] * gens[0] + 4 * squares - 1),))
    # the old gate, sum of q^21 <= min(box scan, max_scan), is open here
    gate = sum(q ** len(names) for q in solve._LOCAL_MODULI)
    bounds = {name: (-10, 10) for name in names}
    report = solve_system(system, SolverConfig(bounds=bounds, max_scan=gate))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.notes == (f"scan of {21**20} candidates exceeds budget {gate}",)
    # the certificate is true (the equation is odd), but replay refuses it
    certificate = {"kind": "local_obstruction", "modulus": 2, "substitutions": []}
    assert not verify_certificate(system, certificate)


def test_local_obstruction_replay_rejects_tampering(n7_half_report):
    system = generate_system(7, Branch.HALF)
    good = json.loads(n7_half_report.to_json())["certificate"]
    assert verify_certificate(system, good)
    # a solvable modulus, and moduli outside the fixed list
    for modulus in (3, 0, 1, 6, -9, 10**6, "9", 9.0, True):
        bad = json.loads(json.dumps(good))
        bad["modulus"] = modulus
        assert not verify_certificate(system, bad), modulus
    # a dropped substitution leaves a linear residue, so the search would not
    # run on the residual system
    for index in range(len(good["substitutions"])):
        bad = json.loads(json.dumps(good))
        del bad["substitutions"][index]
        assert not verify_certificate(system, bad), index
    bad = json.loads(json.dumps(good))
    bad["substitutions"][0]["expression"][0]["coeff_num"] = "57"
    assert not verify_certificate(system, bad)
    bad = json.loads(json.dumps(good))
    bad["substitutions"][1]["combination"][0][1] = "1"
    assert not verify_certificate(system, bad)
    # the standard system is solvable, binomial vector included
    assert not verify_certificate(generate_system(7, Branch.STANDARD), good)


def test_local_obstruction_on_a_small_system():
    # squares are 0 or 1 mod 4, so x^2 + y^2 = 3 has no integer solution
    system = system_of(X * X + Y * Y - 3)
    wide = solve_system(system, SolverConfig(bounds={"x": (-500, 500), "y": (-500, 500)}))
    assert wide.verdict == VERDICT_NO_SOLUTION
    assert wide.certificate == {"kind": "local_obstruction", "modulus": 4, "substitutions": []}
    assert verify_certificate(system, wide.certificate)
    # a box of fewer than 2^2 + 3^2 + ... + 16^2 = 794 driver points is
    # scanned first; once it is exhausted the search runs, within the budget
    bounds = {"x": (-5, 5), "y": (-5, 5)}
    narrow = solve_system(system, SolverConfig(bounds=bounds))
    assert narrow.verdict == VERDICT_NO_SOLUTION
    assert narrow.certificate == wide.certificate
    assert narrow.bounds is None and narrow.notes == ()
    # a budget below 794 skips it, and the box proves nothing
    capped = solve_system(system, SolverConfig(bounds=bounds, max_scan=793))
    assert capped.verdict == VERDICT_INCONCLUSIVE
    assert capped.notes == ("box exhausted without integer solutions",)


def test_no_local_obstruction_is_noted_only_when_inconclusive():
    # x*y = 1000003 (a prime) is solvable mod everything: x = 1, y = 1000003
    system = system_of(X * Y - 1000003)
    missed = solve_system(system, SolverConfig(bounds={"x": (2, 1000), "y": (0, 2 * 10**6)}))
    assert missed.verdict == VERDICT_INCONCLUSIVE
    assert missed.notes == (
        "no local obstruction modulo 2, 3, 4, 5, 7, 8, 9, 11, 13, 16",
        "box exhausted without integer solutions",
    )
    found = solve_system(system, SolverConfig(bounds={"x": (1, 1000), "y": (0, 2 * 10**6)}))
    assert found.verdict == VERDICT_SOLUTIONS
    assert found.solutions == ({"x": 1, "y": 1000003},)
    assert found.notes == ()


def test_planted_systems_never_enter_the_residue_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the residue search ran")

    monkeypatch.setattr(solve, "_local_obstruction", refuse)
    rng = random.Random(59)
    for _ in range(40):
        system, expected, bounds = planted_system(rng)
        report = solve_system(system, SolverConfig(bounds=bounds))
        assert list(report.solutions) == expected


def test_reports_are_deterministic(n7_half_report):
    a = n7_half_report.to_json()
    b = classify(7, Branch.HALF).to_json()
    assert a == b


def test_report_serializes_integers_as_strings():
    report = classify(5, Branch.STANDARD)
    data = report.to_json_dict()
    assert data["visited"] == str(report.visited)
    for solution in data["solutions"]:
        assert all(isinstance(v, str) for v in solution.values())
    assert data["n"] == 5
    assert data["branch"] == "standard"


def test_report_timing_toggle():
    report = classify(3, Branch.STANDARD)
    assert "elapsed_ms" not in report.to_json_dict()
