"""Constraint systems for a compactification pair (M, D).

Setting: M is a smooth projective n-fold whose cohomology ring is
Z[x]/(x^{n+1}) with the Betti numbers of P^n, D is a smooth divisor
generating the cohomology, and M \\ D is a homology cell.  The normal-bundle
splitting gives the adjunction relations c_i(M) = c_i(D) + c_{i-1}(D), the
pair of A_1 identities forces the quadratic relation

    n(n+1)^2 / (2 c_1(M)) = n + (n-1) n^2 / (2 (c_1(M) - 1)),

whose roots are c_1(M) = n+1 (the branch realized by projective space) and
c_1(M) = (n+1)/2 (the non-standard branch).  The second Stiefel-Whitney
class w_2 = c_1 mod 2 is a homotopy invariant, so the half branch survives
only when (n+1)/2 and n+1 agree mod 2, i.e. n = 3 mod 4.

:func:`generate_system` turns all of this into an explicit polynomial system
in the unknown middle Chern entries c_2, ..., c_{n-1}: every even coefficient
A_k = a_{2k} of the (y+1)-expansion of chi_y that the dimension allows is
equated with its projective-space value, on M and on D, together with the
Euler constraint on D and the alternating-sum identity
sum_k (-1)^k c_k(M) = (-1)^n that holds because M \\ D is contractible enough
to carry a vanishing-Euler vector-field argument.  Whether the resulting Diophantine system has integer solutions is
the business of :mod:`chiy.solve`; this module only builds it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chern import ChernVector
from .genus import (
    HodgeDiamond,
    chi_y_from_hodge,
    expand_at_minus_one,
    minus_one_coefficients,
)
from .polynomials import MultivariatePolynomial

log = logging.getLogger(__name__)


class Branch(enum.Enum):
    """Which root of the c_1 dichotomy a pair (M, D) commits to."""

    STANDARD = "standard"
    HALF = "half"

    def c1(self, n: int) -> Fraction:
        if self is Branch.STANDARD:
            return Fraction(n + 1)
        return Fraction(n + 1, 2)

    def valid_for(self, n: int) -> bool:
        return self is Branch.STANDARD or n % 2 == 1


def adjunction_chern(c_m: ChernVector) -> ChernVector:
    """Chern vector of the divisor D from c_i(M) = c_i(D) + c_{i-1}(D).

    Solves downward: c_1(D) = c_1(M) - 1, then
    c_i(D) = c_i(M) - c_{i-1}(D) for i = 2..n-1.
    """
    if c_m.n < 2:
        raise ValueError("adjunction needs n >= 2")
    entries = [c_m.scalar(1) - 1]
    for i in range(2, c_m.n):
        entries.append(c_m.scalar(i) - entries[-1])
    return ChernVector(entries)


@dataclass(frozen=True)
class DichotomyRoots:
    """Roots of the defining quadratic 2 c^2 - 3(n+1) c + (n+1)^2 = 0."""

    n: int
    roots: tuple[Fraction, Fraction]

    def integral_flags(self) -> tuple[bool, bool]:
        return tuple(r.denominator == 1 for r in self.roots)


def dichotomy_residual(n: int, c1) -> Fraction:
    """Left minus right side of the relation
    n(n+1)^2 / (2 c_1) = n + (n-1) n^2 / (2 (c_1 - 1))."""
    c1 = Fraction(c1)
    if c1 == 0 or c1 == 1:
        raise ValueError("relation undefined at c_1 in {0, 1}")
    return Fraction(n * (n + 1) ** 2, 1) / (2 * c1) - n - Fraction((n - 1) * n**2, 1) / (
        2 * (c1 - 1)
    )


def dichotomy_roots(n: int) -> DichotomyRoots:
    """Exact roots of the c_1(M) relation: cleared of denominators it reads
    2 c^2 - 3(n+1) c + (n+1)^2 = 0, with discriminant (n+1)^2."""
    if n < 2:
        raise ValueError("needs n >= 2")
    # quadratic formula with the exact square root of (n+1)^2
    roots = (Fraction(3 * (n + 1) + (n + 1), 4), Fraction(3 * (n + 1) - (n + 1), 4))
    return DichotomyRoots(n, roots)


def parity_admissible(n: int) -> bool:
    """Whether the half branch survives the w_2 comparison: (n+1)/2 must be an
    integer congruent to n+1 mod 2, which happens exactly for n = 3 mod 4."""
    if n % 2 == 0:
        return False
    half = (n + 1) // 2
    return half % 2 == (n + 1) % 2


@dataclass(frozen=True)
class ForcedValues:
    """Chern entries pinned on the half branch by the A_0 and A_1 equations."""

    n: int
    c_top_minus_one_m: Fraction  # c_{n-1}(M)
    c_top_minus_two_d: Fraction  # c_{n-2}(D)
    inconsistency: Optional[str]


def forced_values(n: int) -> ForcedValues:
    """On the half branch, dividing the pinned products by c_1 gives
    c_{n-1}(M) = n(n+1) and c_{n-2}(D) = n^2.  For n = 3 the latter collides
    with c_1(D) = (n-1)/2 fixed by the branch itself, which is reported
    rather than silently accepted."""
    if n % 4 != 3:
        raise ValueError("forced values apply to the half branch, n = 3 mod 4 only")
    c_m = Fraction(n * (n + 1))
    c_d = Fraction(n**2)
    inconsistency = None
    if n - 2 == 1:
        branch_c1_d = Fraction(n - 1, 2)
        if branch_c1_d != c_d:
            inconsistency = (
                f"c_1(D) forced to both {branch_c1_d} (branch value (n-1)/2) "
                f"and {c_d} (pinned product)"
            )
    return ForcedValues(n, c_m, c_d, inconsistency)


def alternating_sum_check(c: ChernVector) -> bool:
    """Check sum_{k=0}^{n} (-1)^k c_k = (-1)^n with c_0 = 1; for polynomial
    entries this demands the identity hold for every value of the unknowns."""
    acc = Fraction(1)
    for k in range(1, c.n + 1):
        term = c.scalar(k)
        acc = acc - term if k % 2 else acc + term
    return acc == (Fraction(1) if c.n % 2 == 0 else Fraction(-1))


@dataclass(frozen=True)
class Equation:
    """A single constraint, as polynomial = 0, tagged by which invariant
    produced it (for example ``A_2(M)`` or ``alternating_sum(M)``)."""

    provenance: str
    polynomial: MultivariatePolynomial


@dataclass(frozen=True)
class EquationSystem:
    """A polynomial system over the unknown Chern entries.

    ``n`` and ``branch`` are echoes of the generating call and stay ``None``
    for hand-built systems.
    """

    variables: tuple[str, ...]
    equations: tuple[Equation, ...]
    n: Optional[int] = None
    branch: Optional[Branch] = None

    def residuals(self, assignment) -> list[Fraction]:
        return [eq.polynomial.evaluate(assignment) for eq in self.equations]

    def satisfied_by(self, assignment) -> bool:
        return all(r == 0 for r in self.residuals(assignment))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "branch": self.branch.value if self.branch else None,
            "variables": list(self.variables),
            "equations": [
                {
                    "provenance": eq.provenance,
                    "monomials": eq.polynomial.to_json_terms(),
                }
                for eq in self.equations
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "EquationSystem":
        variables = tuple(data["variables"])
        equations = tuple(
            Equation(
                item["provenance"],
                MultivariatePolynomial.from_json_terms(variables, item["monomials"]),
            )
            for item in data["equations"]
        )
        branch = Branch(data["branch"]) if data.get("branch") else None
        return cls(variables, equations, data.get("n"), branch)


#: JSON shape of a single monomial, matching
#: :meth:`MultivariatePolynomial.to_json_terms` (exact integers as strings).
MONOMIAL_SCHEMA = {
    "type": "object",
    "required": ["coeff_num", "coeff_den", "exponents"],
    "properties": {
        "coeff_num": {"type": "string", "pattern": "^-?[0-9]+$"},
        "coeff_den": {"type": "string", "pattern": "^[1-9][0-9]*$"},
        "exponents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
    },
    "additionalProperties": False,
}

#: JSON shape of :meth:`EquationSystem.to_json_dict`.
SYSTEM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "polynomial equation system",
    "type": "object",
    "required": ["n", "branch", "variables", "equations"],
    "properties": {
        "n": {"type": ["integer", "null"], "minimum": 1},
        "branch": {"enum": [b.value for b in Branch] + [None]},
        "variables": {"type": "array", "items": {"type": "string"}},
        "equations": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["provenance", "monomials"],
                "properties": {
                    "provenance": {"type": "string"},
                    "monomials": {"type": "array", "items": MONOMIAL_SCHEMA},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def _as_polynomial(value, variables) -> MultivariatePolynomial:
    if isinstance(value, MultivariatePolynomial):
        return value
    return MultivariatePolynomial.constant(value, variables)


def unknown_chern_vector(n: int, branch: Branch) -> tuple[ChernVector, tuple[str, ...]]:
    """The symbolic Chern vector (c_1 fixed by the branch, c_n = n+1 fixed by
    the Euler count, c_2..c_{n-1} free polynomial unknowns)."""
    if n < 3:
        raise ValueError("needs n >= 3")
    if not branch.valid_for(n):
        raise ValueError(f"branch {branch.value} undefined for even n = {n}")
    c1 = branch.c1(n)
    if c1.denominator != 1:
        raise ValueError(f"half branch needs odd n, got n = {n}")
    variables = tuple(f"c{i}" for i in range(2, n))
    entries: list = [MultivariatePolynomial.constant(c1, variables)]
    for name in variables:
        entries.append(MultivariatePolynomial.variable(name, variables))
    entries.append(MultivariatePolynomial.constant(n + 1, variables))
    return ChernVector(entries), variables


def _projective_expansion(n: int) -> tuple:
    """Target coefficients a_j(P^n) through the Hodge route, which does not
    touch the Chern pipeline under test."""
    chi = chi_y_from_hodge(HodgeDiamond.projective_space(n))
    return expand_at_minus_one(chi).coefficients


def generate_system(n: int, branch: Branch) -> EquationSystem:
    """Build the Diophantine system for the pair (M, D) on the given branch.

    Equations, in a fixed (k, manifold) order:

    * ``A_0(D)``: the Euler number of D equals n (A_0(M) is consumed when
      c_n(M) = n+1 is built into the unknown vector and would read 0 = 0);
    * ``A_k(M)`` for 2k <= n and ``A_k(D)`` for 2k <= n-1, k >= 1;
    * ``alternating_sum(M)``.

    The odd coefficients a_j are not equated: by Serre symmetry
    chi_p = (-1)^n chi_{n-p} they lie in the rational span of the even ones,
    so they would add equations but no constraint.  Identically-zero
    equations are dropped with a log note.
    """
    chern_m, variables = unknown_chern_vector(n, branch)
    chern_d = adjunction_chern(chern_m)

    a_m = minus_one_coefficients(chern_m, range(2, n + 1, 2))
    a_d = minus_one_coefficients(chern_d, range(0, n, 2))
    target_m = _projective_expansion(n)
    target_d = _projective_expansion(n - 1)

    candidates: list[tuple[str, MultivariatePolynomial]] = []
    candidates.append(
        ("A_0(D)", _as_polynomial(a_d[0], variables) - target_d[0])
    )
    k = 1
    while 2 * k <= n:
        candidates.append(
            (f"A_{k}(M)", _as_polynomial(a_m[2 * k], variables) - target_m[2 * k])
        )
        if 2 * k <= n - 1:
            candidates.append(
                (f"A_{k}(D)", _as_polynomial(a_d[2 * k], variables) - target_d[2 * k])
            )
        k += 1

    alt = Fraction(1)
    for i in range(1, n + 1):
        term = chern_m.scalar(i)
        alt = alt - term if i % 2 else alt + term
    alt = alt - (1 if n % 2 == 0 else -1)
    candidates.append(("alternating_sum(M)", _as_polynomial(alt, variables)))

    equations = []
    for provenance, poly in candidates:
        if not poly:
            log.info("dropping identically zero equation %s", provenance)
            continue
        equations.append(Equation(provenance, poly))
    return EquationSystem(tuple(variables), tuple(equations), n, branch)
