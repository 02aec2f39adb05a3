"""Seeded small systems whose integer solution set is known by construction.

Feasible systems follow the construction of ``tests/planted.py``: every
variable is confined to a planted root set by a root-product equation, and an
optional linear cut through one grid point slices the product of the root
sets.  Infeasible systems confine the first variable twice, either to two
disjoint root sets or by a quadratic with a non-square discriminant, and tie
every other variable to it linearly, so that reduction leaves a single free
variable and the solver must return a replayable certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from chiy.fujita import Equation, EquationSystem
from chiy.polynomials import MultivariatePolynomial

ROOT_RANGE = 12  # planted roots live in [-12, 12]
BOUND = ROOT_RANGE + 5  # every variable is searched in [-17, 17]
NAMES = ("x", "y", "z")
KINDS = ("feasible", "disjoint_roots", "nonsquare_quadratic")
KIND_WEIGHTS = (6, 1, 1)


@dataclass(frozen=True)
class Planted:
    kind: str
    system: EquationSystem
    bounds: dict
    expected: Optional[frozenset]  # solution tuples, None when infeasible


def planted_systems(rng, count: int) -> list[Planted]:
    return [planted_system(rng) for _ in range(count)]


def planted_system(rng) -> Planted:
    kind = rng.choices(KINDS, KIND_WEIGHTS)[0]
    names = NAMES[: rng.choice((1, 2, 2, 3))]
    gens = MultivariatePolynomial.generators(names)
    bounds = {name: (-BOUND, BOUND) for name in names}
    if kind == "feasible":
        equations, expected = _feasible(rng, names, gens)
    else:
        equations = _infeasible(rng, kind, names, gens)
        expected = None
    return Planted(kind, EquationSystem(names, tuple(equations)), bounds, expected)


def _root_product(rng, names, g, roots):
    poly = MultivariatePolynomial.one(names)
    for r in roots:
        poly = poly * (g - r)
    return rng.choice((1, 2, 3, -1)) * poly


def _feasible(rng, names, gens):
    root_sets = []
    equations = []
    for name, g in zip(names, gens):
        roots = rng.sample(range(-ROOT_RANGE, ROOT_RANGE + 1), rng.choice((1, 2)))
        equations.append(Equation(f"roots({name})", _root_product(rng, names, g, roots)))
        root_sets.append(roots)
    grid = list(itertools.product(*root_sets))
    if rng.random() < 0.6:
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in names]
        anchor = rng.choice(grid)
        constant = -sum(a * v for a, v in zip(coeffs, anchor))
        cut = MultivariatePolynomial.constant(constant, names)
        for a, g in zip(coeffs, gens):
            cut = cut + a * g
        equations.append(Equation("cut", cut))
        grid = [p for p in grid if sum(a * v for a, v in zip(coeffs, p)) + constant == 0]
    return equations, frozenset(grid)


def _infeasible(rng, kind, names, gens):
    x = gens[0]
    if kind == "disjoint_roots":
        roots = rng.sample(range(-ROOT_RANGE, ROOT_RANGE + 1), 4)
        equations = [
            Equation("roots_a(x)", _root_product(rng, names, x, roots[:2])),
            Equation("roots_b(x)", _root_product(rng, names, x, roots[2:])),
        ]
    else:
        while True:
            b, c = rng.randint(-20, 20), rng.randint(-200, 200)
            disc = b * b - 4 * c
            if disc >= 0 and math.isqrt(disc) ** 2 != disc:
                break
        quadratic = x * x + b * x + c
        equations = [Equation("quadratic(x)", rng.choice((1, 2, 3, -1)) * quadratic)]
    for name, g in zip(names[1:], gens[1:]):
        link = g - rng.choice((-3, -2, -1, 1, 2, 3)) * x - rng.randint(-5, 5)
        equations.append(Equation(f"link({name})", link))
    return equations
