"""Acceptance gate: eleven numbered criteria covering the package's headline
guarantees, one test per criterion, each emitting a single PASS/FAIL line.

The lines are written with capture suspended, so a plain
``pytest -v tests/test_acceptance.py`` shows them inline.  Every check is
exact rational arithmetic; the only tolerances are wall-clock budgets where a
criterion states one.
"""

import contextlib
import json
import math
import random
import time
from fractions import Fraction

import jsonschema
import pytest

from chiy.chern import ChernVector, projective_space, todd_class
from chiy.fujita import (
    Branch,
    Equation,
    EquationSystem,
    adjunction_chern,
    alternating_sum_check,
    dichotomy_roots,
    forced_values,
    generate_system,
    parity_admissible,
    unknown_chern_vector,
)
from chiy.genus import (
    ChiYPolynomial,
    HodgeDiamond,
    a1_closed_form,
    chi_y_from_chern,
    chi_y_from_hodge,
    expand_at_minus_one,
    pinned_products,
)
from chiy.solve import (
    REPORT_SCHEMA,
    SolverConfig,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_SOLUTION,
    VERDICT_SOLUTIONS,
    classify,
    linear_reduce,
    solve_system,
    verify_certificate,
)

from planted import planted_system


class _Record:
    """Carries an optional detail string into the PASS/FAIL line."""

    def __init__(self):
        self.detail = ""

    def note(self, text: str) -> None:
        self.detail = text


@pytest.fixture
def criterion(capsys):
    """One PASS/FAIL line per criterion, printed with capture suspended."""

    @contextlib.contextmanager
    def run(number: int, description: str):
        record = _Record()
        failed = False
        try:
            yield record
        except BaseException:
            failed = True
            raise
        finally:
            line = f"{'FAIL' if failed else 'PASS'} criterion {number:2d}: {description}"
            if record.detail:
                line += f" [{record.detail}]"
            with capsys.disabled():
                print(line, flush=True)

    return run


def _binomial_assignment(n: int) -> dict:
    return {f"c{i}": Fraction(math.comb(n + 1, i)) for i in range(2, n)}


def _apply(poly, substitutions):
    for sub in substitutions:
        poly = poly.substitute({sub.variable: sub.expression})
    return poly


def test_criterion_01_projective_space_suite(criterion):
    with criterion(1, "chi_y and Todd normalization on P^n, n = 1..10") as c:
        start = time.perf_counter()
        for n in range(1, 11):
            vector = projective_space(n)
            computed = chi_y_from_chern(vector)
            closed_form = ChiYPolynomial(
                tuple(Fraction((-1) ** p) for p in range(n + 1))
            )
            oracle = chi_y_from_hodge(HodgeDiamond.projective_space(n))
            assert computed == closed_form == oracle, f"chi_y mismatch at n={n}"
            assert todd_class(vector).coefficients[n] == 1, f"Todd integral at n={n}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        c.note(f"{elapsed:.2f}s")


def test_criterion_02_a1_closed_form_identity(criterion):
    with criterion(
        2, "A_1 = n(3n-5)/24 c_n + 1/12 c_1 c_{n-1} on 200 random vectors per n"
    ) as c:
        rng = random.Random(20260814)
        count = 0
        for n in range(2, 9):
            for _ in range(200):
                entries = [Fraction(rng.randint(-60, 60)) for _ in range(n)]
                vector = ChernVector(entries)
                expansion = expand_at_minus_one(chi_y_from_chern(vector))
                assert expansion.A(1) == a1_closed_form(vector), (n, entries)
                count += 1
        c.note(f"{count} vectors, n = 2..8, exact")


def test_criterion_03_pinned_products_and_forced_values(criterion):
    with criterion(
        3, "A_1 equations force c_{n-1}(M) = n(n+1), c_{n-2}(D) = n^2 up to n = 19"
    ) as c:
        for n in (3, 7, 11, 15, 19):
            pp = pinned_products(n)
            assert (pp.euler_m, pp.euler_d, pp.c1_cn1_m, pp.c1_cn2_d) == (
                n + 1,
                n,
                Fraction(n * (n + 1) ** 2, 2),
                Fraction((n - 1) * n**2, 2),
            ), n
            fv = forced_values(n)
            assert fv.c_top_minus_one_m == n * (n + 1)
            assert fv.c_top_minus_two_d == n**2

            vec_m, variables = unknown_chern_vector(n, Branch.HALF)
            vec_d = adjunction_chern(vec_m)
            eq_m = Equation(
                "A_1(M)", a1_closed_form(vec_m) - math.comb(n + 1, 3)
            )
            eq_d0 = Equation("A_0(D)", vec_d.scalar(n - 1) - n)
            eq_d1 = Equation(
                "A_1(D)", a1_closed_form(vec_d) - math.comb(n, 3)
            )

            # A_1(M) alone pins c_{n-1}(M)
            only_m = linear_reduce(EquationSystem(variables, (eq_m,), n, Branch.HALF))
            assert only_m.inconsistency is None
            assert _apply(vec_m.scalar(n - 1), only_m.substitutions) == n * (n + 1), n

            triple = EquationSystem(variables, (eq_m, eq_d0, eq_d1), n, Branch.HALF)
            reduced = linear_reduce(triple)
            if n == 3:
                # here c_{n-2}(D) is c_1(D), already fixed to 1 by the branch,
                # so the forced 9 surfaces as a certified inconsistency
                assert fv.inconsistency is not None
                assert reduced.inconsistency is not None
                assert verify_certificate(triple, reduced.inconsistency)
            else:
                assert reduced.inconsistency is None
                assert _apply(vec_d.scalar(n - 2), reduced.substitutions) == n**2, n

        # the cheap route above must agree with the fully generated system
        full = linear_reduce(generate_system(7, Branch.HALF))
        pinned = {s.variable: s.expression for s in full.substitutions}
        assert pinned["c6"] == 56
        vec_m, _ = unknown_chern_vector(7, Branch.HALF)
        assert _apply(adjunction_chern(vec_m).scalar(5), full.substitutions) == 49
        c.note("n in {3, 7, 11, 15, 19}; n = 3 collision certified")


def test_criterion_04_dichotomy_roots(criterion):
    with criterion(4, "dichotomy roots are exactly {n+1, (n+1)/2} for n = 2..50") as c:
        for n in range(2, 51):
            roots = dichotomy_roots(n)
            assert roots.roots == (Fraction(n + 1), Fraction(n + 1, 2)), n
        c.note("exact")


def test_criterion_05_parity_admissibility(criterion):
    with criterion(5, "half branch admissible exactly when n = 3 (mod 4), n = 2..50") as c:
        for n in range(2, 51):
            assert parity_admissible(n) == (n % 4 == 3), n
        c.note("exact")


def test_criterion_06_n5_exclusion(criterion):
    with criterion(6, "n = 5 half branch has no integer solution, certified") as c:
        start = time.perf_counter()
        report = classify(5, Branch.HALF)
        elapsed = time.perf_counter() - start
        assert report.verdict == VERDICT_NO_SOLUTION
        # the certificate must replay from its serialized form
        payload = json.loads(report.to_json())
        system = generate_system(5, Branch.HALF)
        assert verify_certificate(system, payload["certificate"])
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
        c.note(f"{payload['certificate']['kind']}, {elapsed:.2f}s")


def test_criterion_07_standard_branch_soundness(criterion):
    with criterion(
        7, "binomial vector satisfies the standard systems for n = 3..13"
    ) as c:
        report = classify(5, Branch.STANDARD)
        assert report.verdict == VERDICT_SOLUTIONS
        assert {"c2": 15, "c3": 20, "c4": 15} in report.solutions
        for n in range(3, 14):
            system = generate_system(n, Branch.STANDARD)
            assert system.satisfied_by(_binomial_assignment(n)), n
        c.note("classify(5) recovers (15, 20, 15); n = 3..13 exact")


def test_criterion_08_n3_degenerate_case(criterion):
    with criterion(8, "n = 3 half branch fails by linear inconsistency") as c:
        report = classify(3, Branch.HALF)
        assert report.verdict == VERDICT_NO_SOLUTION
        assert report.certificate["kind"] == "linear_inconsistency"
        assert verify_certificate(generate_system(3, Branch.HALF), report.certificate)
        c.note("certified")


def test_criterion_09_alternating_sum_identity(criterion):
    with criterion(
        9, "alternating Chern sum identity on binomials (n <= 30) and reduced n = 5"
    ) as c:
        for n in range(1, 31):
            entries = [Fraction(math.comb(n + 1, i)) for i in range(1, n + 1)]
            assert alternating_sum_check(ChernVector(entries)), n
        # the one-parameter family solving the linear part of the n = 5 half
        # system satisfies the identity for every value of the free variable
        reduced = linear_reduce(generate_system(5, Branch.HALF))
        vector, _ = unknown_chern_vector(5, Branch.HALF)
        parameterized = ChernVector(
            [_apply(entry, reduced.substitutions) for entry in vector.entries]
        )
        assert reduced.free_variables == ("c2",)
        assert alternating_sum_check(parameterized)
        c.note("identically in c2")


def test_criterion_10_open_branch_n7(criterion):
    with criterion(10, "n = 7 half branch terminates and is internally certified") as c:
        start = time.perf_counter()
        report = classify(7, Branch.HALF)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
        payload = report.to_json_dict()
        jsonschema.validate(payload, REPORT_SCHEMA)
        system = generate_system(7, Branch.HALF)
        # the verdict's value is recorded, not asserted: whichever way the
        # search came out, its supporting evidence must check out
        if report.verdict == VERDICT_SOLUTIONS:
            assert report.solutions
            assert all(system.satisfied_by(s) for s in report.solutions)
        elif report.verdict == VERDICT_NO_SOLUTION:
            assert verify_certificate(system, json.loads(report.to_json())["certificate"])
        else:
            assert report.verdict == VERDICT_INCONCLUSIVE
            assert report.bounds is not None and report.notes
        c.note(f"verdict: {report.verdict}, {elapsed:.1f}s, visited {report.visited}")


def test_criterion_11_planted_solver_suite(criterion):
    with criterion(11, "100 planted systems recovered exactly") as c:
        rng = random.Random(2026)
        for index in range(100):
            system, expected, bounds = planted_system(rng)
            sieved = solve_system(system, SolverConfig(bounds=bounds))
            assert sieved.verdict == VERDICT_SOLUTIONS, index
            assert list(sieved.solutions) == expected, index
        c.note("exact recovery")
