"""Integer solvability of the generated constraint systems.

Verdict discipline.  A report may claim one of three things, and each claim
carries its own burden of proof:

* ``no_integer_solution`` only together with a machine-checkable certificate
  (a linear inconsistency witness, a variable forced to a non-integer, a
  residual univariate polynomial with root-freeness evidence, an exhausted
  finite candidate set, or a modulus with no common zero);
* ``solutions`` only after every reported assignment has been re-substituted
  exactly into the original, pre-reduction system;
* ``inconclusive`` otherwise, recording exactly which box was searched.

Certificates are verified by :func:`verify_certificate` before a report is
ever emitted, and the same function can replay a stored report against a
freshly generated system.  Root certificates replay by recomputation: the
named equation of the original system, after the recorded substitutions,
goes through :func:`univariate_integer_roots` again, and every recorded field
of the analysis (variable, scale, coefficients, evidence) must match.

A local obstruction is a prime power q <= 16 modulo which the residual
equations, cleared of denominators, have no common zero; an integer solution
would reduce to one modulo every q.  The residue search runs after the root
analysis and before enumeration, when its worst case, the sum of q^k over the
moduli for k free variables, is at most both the enumeration's driver count
and the scan budget, for at most 20 free variables.  When that worst case is
within the budget but above the driver count, the search runs after an
enumeration whose box held no solution instead, so a small box does not hide
a global certificate.  It compiles one function per system, one loop over the
residues per free variable, with the modulus as its argument.  Replay
rebuilds the residual system from the recorded substitutions and runs the
same search for the recorded modulus.

Bounded enumeration compiles, per call, one Python function that walks the
box: a loop over the inner driver variable nested in one over the outer
drivers' points, and one candidate rule for the remaining variable.  Its
candidates are the integer zeros of the first equation of lowest degree in
it (whose coefficients are split so the outer drivers' parts are computed
once per outer point), or its whole range where that equation vanishes
identically or when no variable has degree 1 or 2 in any equation.  Every
equation is checked exactly at every in-bound candidate.  In the source of
both searches variables are named by position, and it sees no builtins, so
no user string is ever compiled.  Solutions outside a requested interval,
an eliminated variable's included, are dropped from the report.

The reduction carries multiplier columns through Gaussian elimination, so
a substitution like ``c3 = c2 + 23`` is not just an output but an identity
``sum_i lambda_i * eq_i == c3 - (c2 + 23)`` over the (already substituted)
input equations, which is what makes the certificates replayable without
trusting the elimination code.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .fujita import (
    MONOMIAL_SCHEMA,
    Branch,
    Equation,
    EquationSystem,
    generate_system,
)
from .polynomials import MultivariatePolynomial

VERDICT_NO_SOLUTION = "no_integer_solution"
VERDICT_SOLUTIONS = "solutions"
VERDICT_INCONCLUSIVE = "inconclusive"

#: The default search box is |c_i| <= _BOUND_SCALE * C(n+1, i).
_BOUND_SCALE = 16


class SoundnessError(RuntimeError):
    """An internal cross-check failed; a report would have been unsound."""


class EnumerationBudget(Exception):
    """The requested box is larger than the configured scan budget."""


class RootSearchOverflow(Exception):
    """Divisor enumeration refused: the constant term is too large to factor."""


def _fr_str(value: Fraction) -> str:
    value = value if isinstance(value, Fraction) else Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _parse_fr(text) -> Fraction:
    return Fraction(str(text))


# ---------------------------------------------------------------------------
# linear reduction


@dataclass(frozen=True)
class Substitution:
    """``variable = expression``, derived in elimination pass ``pass_index``
    as the combination ``sum multiplier * input_equation`` recorded in
    ``combination`` (indices refer to the original system; the inputs of pass
    k are the originals with all earlier passes' substitutions applied)."""

    variable: str
    expression: MultivariatePolynomial
    combination: tuple[tuple[int, Fraction], ...]
    pass_index: int

    def to_json_dict(self) -> dict:
        return {
            "variable": self.variable,
            "expression": self.expression.to_json_terms(),
            "combination": [[i, _fr_str(m)] for i, m in self.combination],
            "pass": self.pass_index,
        }


@dataclass(frozen=True)
class ResidualEquation:
    index: int  # position in the original system
    provenance: str
    polynomial: MultivariatePolynomial


@dataclass(frozen=True)
class ReducedSystem:
    original: EquationSystem
    substitutions: tuple[Substitution, ...]
    residual: tuple[ResidualEquation, ...]
    free_variables: tuple[str, ...]
    inconsistency: Optional[dict]

    def residual_system(self) -> EquationSystem:
        equations = tuple(
            Equation(r.provenance, r.polynomial.restrict(self.free_variables))
            for r in self.residual
        )
        return EquationSystem(
            self.free_variables, equations, self.original.n, self.original.branch
        )

    def extend(self, free_assignment) -> dict[str, Fraction]:
        """Complete an assignment of the free variables to all variables."""
        values = {name: Fraction(v) for name, v in free_assignment.items()}
        for sub in reversed(self.substitutions):
            values[sub.variable] = sub.expression.evaluate(values)
        return values

    def integer_solutions(self, free_assignments) -> list[dict[str, int]]:
        """The free assignments whose completion is integral and satisfies the
        original system, completed and sorted by the original variables."""
        solutions = []
        for assignment in free_assignments:
            full = self.extend(assignment)
            if any(v.denominator != 1 for v in full.values()):
                continue
            candidate = {name: int(v) for name, v in full.items()}
            if self.original.satisfied_by(candidate):
                solutions.append(candidate)
        variables = self.original.variables
        solutions.sort(key=lambda a: tuple(a[v] for v in variables))
        return solutions


def _linear_parts(poly: MultivariatePolynomial):
    """Constant and per-variable coefficients of an affine polynomial."""
    den = poly.denominator
    constant = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    for num, exps in poly.integer_terms():
        if not any(exps):
            constant = Fraction(num, den)
        else:
            coeffs[poly.variables[exps.index(1)]] = Fraction(num, den)
    return constant, coeffs


def linear_reduce(system: EquationSystem) -> ReducedSystem:
    """Iteratively eliminate the affine-linear part of the system.

    Each pass runs exact Gaussian elimination over the equations of total
    degree <= 1, preferring to solve for the latest variables so that the
    earliest ones stay free, substitutes the solved variables everywhere, and
    repeats, because substitution can linearize previously nonlinear
    equations.  Multipliers are tracked so every substitution and any
    inconsistency comes with its defining linear combination.
    """
    variables = system.variables
    work: list[tuple[int, MultivariatePolynomial]] = [
        (i, eq.polynomial) for i, eq in enumerate(system.equations)
    ]
    substitutions: list[Substitution] = []
    pivoted: set[str] = set()
    pass_index = 0
    inconsistency = None

    while True:
        linear: list[tuple[int, MultivariatePolynomial]] = []
        rest: list[tuple[int, MultivariatePolynomial]] = []
        for idx, poly in work:
            if not poly:
                continue
            (linear if poly.total_degree() <= 1 else rest).append((idx, poly))
        work = rest
        if not linear:
            break
        pass_index += 1
        columns = [v for v in reversed(variables) if v not in pivoted]
        width = len(columns)

        # augmented rows [coefficients | constant | multipliers]: row j starts
        # as linear equation j, so its multipliers are the j-th unit vector
        rows = []
        for j, (idx, poly) in enumerate(linear):
            constant, coeffs = _linear_parts(poly)
            row = [coeffs.get(name, Fraction(0)) for name in columns]
            row.append(constant)
            row.extend([Fraction(0)] * len(linear))
            row[width + 1 + j] = Fraction(1)
            rows.append(row)

        pivots: list[tuple[int, str]] = []  # (row index, variable)
        used_rows: set[int] = set()
        for c, name in enumerate(columns):
            pivot_row = None
            for r in range(len(rows)):
                if r not in used_rows and rows[r][c]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            used_rows.add(pivot_row)
            pivots.append((pivot_row, name))
            lead = rows[pivot_row][c]
            rows[pivot_row] = [v / lead for v in rows[pivot_row]]
            for r in range(len(rows)):
                if r == pivot_row or not rows[r][c]:
                    continue
                factor = rows[r][c]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]

        indices = [idx for idx, _ in linear]
        # pivoting covers every column, so a row without a pivot has no
        # coefficients left; a nonzero constant there is an inconsistency
        unpivoted = [row for r, row in enumerate(rows) if r not in used_rows]
        if any(any(row[:width]) for row in unpivoted):  # pragma: no cover
            raise SoundnessError("unpivoted row with surviving coefficients")
        witness = next((row for row in unpivoted if row[width]), None)
        if witness is not None:
            inconsistency = {
                "kind": "linear_inconsistency",
                "substitutions": [s.to_json_dict() for s in substitutions],
                "combination": [
                    [i, _fr_str(m)] for i, m in zip(indices, witness[width + 1:]) if m
                ],
                "pass": pass_index,
                "constant": _fr_str(witness[width]),
            }
            break

        mapping: dict[str, MultivariatePolynomial] = {}
        zero = (0,) * len(variables)
        for pivot_row, name in pivots:
            row = rows[pivot_row]
            terms: dict[tuple[int, ...], Fraction] = {}
            if row[width]:
                terms[zero] = -row[width]
            for other, coeff in zip(columns, row):
                if other == name or not coeff:
                    continue
                exps = tuple(1 if v == other else 0 for v in variables)
                terms[exps] = -coeff
            expression = MultivariatePolynomial(variables, terms)
            combination = tuple((i, m) for i, m in zip(indices, row[width + 1:]) if m)
            substitutions.append(Substitution(name, expression, combination, pass_index))
            mapping[name] = expression
            pivoted.add(name)

        work = [(idx, poly.substitute(mapping)) for idx, poly in rest]

    free = tuple(v for v in variables if v not in pivoted)
    residual = tuple(
        ResidualEquation(idx, system.equations[idx].provenance, poly)
        for idx, poly in work
    )
    return ReducedSystem(system, tuple(substitutions), residual, free, inconsistency)


# ---------------------------------------------------------------------------
# univariate integer roots


@dataclass(frozen=True)
class RootAnalysis:
    """Integer roots of an effectively univariate polynomial, plus the
    evidence that the enumeration was complete."""

    variable: Optional[str]
    roots: tuple[int, ...]
    primitive_coefficients: tuple[int, ...]  # lowest degree first, content 1
    scale: Fraction  # primitive == scale * input
    evidence: dict


_FACTOR_LIMIT = 10**12  # trial division stays under ~1e6 iterations


def _divisors(value: int) -> list[int]:
    value = abs(value)
    if value > _FACTOR_LIMIT:
        raise RootSearchOverflow(f"|constant| = {value} beyond divisor enumeration limit")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while value % p == 0:
            factors[p] = factors.get(p, 0) + 1
            value //= p
    f = 5
    while f * f <= value:
        for p in (f, f + 2):
            while value % p == 0:
                factors[p] = factors.get(p, 0) + 1
                value //= p
        f += 6
    if value > 1:
        factors[value] = factors.get(value, 0) + 1
    divisors = [1]
    for p, k in factors.items():
        divisors = [d * p**e for d in divisors for e in range(k + 1)]
    return sorted(divisors)


def _quadratic_integer_roots(c0: int, c1: int, c2: int):
    """``(discriminant, roots)`` of c0 + c1 x + c2 x^2 with c2 != 0: the sorted
    integer roots, or None when the discriminant is not a perfect square."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return disc, None
    s = math.isqrt(disc)
    if s * s != disc:
        return disc, None
    return disc, sorted({num // (2 * c2) for num in (-c1 + s, -c1 - s) if num % (2 * c2) == 0})


def univariate_integer_roots(poly: MultivariatePolynomial) -> RootAnalysis:
    """All integer roots, with replay evidence.

    Rational coefficients are cleared to a primitive integer polynomial with
    positive leading coefficient; any integer root of that divides its
    constant term, so quadratics are settled by an exact discriminant and
    higher degrees by divisor enumeration.
    """
    if not poly:
        raise ValueError("the zero polynomial has every root")
    used = poly.used_variables()
    if len(used) > 1:
        raise ValueError(f"not univariate: uses {sorted(used)}")
    if not used:
        value = poly.constant_value()
        return RootAnalysis(
            None, (), (1,), 1 / value, {"type": "nonzero_constant", "value": _fr_str(value)}
        )
    variable = next(iter(used))
    idx = poly.variables.index(variable)
    # the numerators over the shared denominator are the cleared coefficients
    ints = [0] * (poly.degree_in(variable) + 1)
    for num, exps in poly.integer_terms():
        ints[exps[idx]] = num
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    ints = [c // content for c in ints]
    scale = Fraction(poly.denominator, content)

    zero_mult = 0
    core = list(ints)
    while core and core[0] == 0:
        zero_mult += 1
        core.pop(0)
    roots: set[int] = set()
    if zero_mult:
        roots.add(0)

    evidence: dict = {"zero_root_multiplicity": zero_mult}
    degree = len(core) - 1
    if degree == 0:
        evidence["type"] = "unit_after_zero_roots" if zero_mult else "nonzero_constant"
    elif degree == 1:
        b, a = core
        evidence["type"] = "linear"
        evidence["divisible"] = b % a == 0
        if b % a == 0:
            roots.add(-b // a)
    elif degree == 2:
        disc, found = _quadratic_integer_roots(*core)
        evidence["type"] = "discriminant"
        evidence["discriminant"] = str(disc)
        evidence["is_square"] = found is not None
        roots.update(found or ())
    else:
        divisors = _divisors(core[0])
        evidence["type"] = "divisors"
        evidence["constant"] = str(core[0])
        evidence["divisors"] = [str(d) for d in divisors]
        for d in divisors:
            for x in (d, -d):
                acc = 0  # Horner
                for coeff in reversed(core):
                    acc = acc * x + coeff
                if acc == 0:
                    roots.add(x)
    return RootAnalysis(variable, tuple(sorted(roots)), tuple(ints), scale, evidence)


# ---------------------------------------------------------------------------
# bounded enumeration


@dataclass(frozen=True)
class EnumerationOutcome:
    assignments: tuple[dict, ...]
    visited: int


def _term_source(terms, names: Sequence[Optional[str]]) -> str:
    """Python source of integer terms; ``names[i]`` is the source name of the
    i-th variable, or None to ignore its exponent."""
    pieces = []
    for coeff, exps in terms:
        factors = []
        for name, e in zip(names, exps):
            if name is None or not e:
                continue
            if e <= 4:
                factors.extend([name] * e)
            else:
                factors.append(f"{name}**{e}")
        if not factors or coeff not in (1, -1):
            factors.insert(0, str(abs(coeff)))
        pieces.append(("-" if coeff < 0 else "") + "*".join(factors))
    return f"({' + '.join(pieces) or '0'})"


def _load(source: str, name: str, **helpers):
    """The function ``name`` defined by generated ``source``, which sees no
    builtins, only ``helpers``.  Popping it leaves its globals without a
    reference back to it, so no cycle outlives the call."""
    namespace = {"__builtins__": {}, **helpers}
    exec(source, namespace)  # noqa: S102 - generated from exact terms
    return namespace.pop(name)


def bounded_enumerate(
    system: EquationSystem,
    bounds: dict[str, tuple[int, int]],
    max_scan: Optional[int] = None,
    *,
    _plan: Optional[tuple[Optional[str], int]] = None,
) -> EnumerationOutcome:
    """Exhaustive search of the integer box for assignments satisfying every
    equation.

    The box is the product of the per-variable bounds.  One variable may be
    solved exactly from an equation of degree <= 2 in it instead of being
    scanned (the result is filtered back to its bound, so the returned set is
    exactly the satisfying points of the box either way).  Each call compiles
    one scan function for its system, see :func:`_scan_source`.  ``_plan`` is
    :func:`_scan_plan` of this system and box when the caller has it already.
    """
    variables = system.variables
    polys = [eq.polynomial for eq in system.equations if eq.polynomial]
    solved, scan = _plan or _scan_plan(polys, bounds, variables)
    for poly in polys:
        if poly.is_constant():
            return EnumerationOutcome((), 0)
    if max_scan is not None and scan > max_scan:
        raise EnumerationBudget(f"scan of {scan} candidates exceeds budget {max_scan}")
    if not variables:
        return EnumerationOutcome(({},), 1)  # the box is one empty point

    source = _scan_source(polys, variables, solved)
    walk = _load(source, "_scan", _quadratic=_quadratic_integer_roots)
    ranges = [range(bounds[v][0], bounds[v][1] + 1) for v in variables]
    slot = _candidate_slot(variables, solved)
    drivers = ranges[:slot] + ranges[slot + 1 :]
    outer = itertools.product(*drivers[:-1])
    visited, found = walk(outer, drivers[-1] if drivers else None, ranges[slot])
    found.sort()
    return EnumerationOutcome(tuple(dict(zip(variables, point)) for point in found), visited)


def _scan_plan(polys, bounds, variables) -> tuple[Optional[str], int]:
    """Check the box; return the variable the enumeration solves for
    exactly (None if there is none) and the number of driver points it scans."""
    for name in variables:
        if name not in bounds:
            raise ValueError(f"no bounds for {name}")
        lo, hi = bounds[name]
        if lo > hi:
            raise ValueError(f"empty bounds for {name}: {lo} > {hi}")
    solved = _choose_solved_variable(polys, bounds, variables)
    scan = 1
    for v in variables:
        if v != solved:
            lo, hi = bounds[v]
            scan *= hi - lo + 1
    return solved, scan


def _choose_solved_variable(polys, bounds, variables) -> Optional[str]:
    best = None
    best_size = -1
    for name in variables:
        degrees = [p.degree_in(name) for p in polys]
        positive = [d for d in degrees if d >= 1]
        if not positive or min(positive) > 2:
            continue
        lo, hi = bounds[name]
        size = hi - lo + 1
        if size >= best_size:  # ties go to the latest variable
            best, best_size = name, size
    return best


def _candidate_slot(variables, solved) -> int:
    """The position of the scan's candidate variable: the solved one, or the
    last one when none is solved."""
    return len(variables) - 1 if solved is None else variables.index(solved)


def _scan_source(polys, variables, solved) -> str:
    """Source of ``_scan(_outer, _inner, _rs)``, which walks the driver points
    (``_outer`` yields the values of every driver but the last, ``_inner`` is
    the last one's range) and returns ``(visited, found)``: the number of
    in-bound candidates checked exactly, and the points of the box, as tuples
    in variable order, at which every equation vanishes.

    Variables are named by position, ``v0, v1, ...``, so no user string
    enters the source.  The candidate variable is the solved one, or the last
    variable when none is solved; the others are the drivers, and ``_rs`` is
    the candidate variable's range.  At each driver point the candidates are
    the integer zeros, within ``_rs``, of one equation: the first of lowest
    degree in the solved variable.  Its coefficients are split by powers of
    the inner driver: the outer parts are computed once per outer point and
    the inner ones by Horner.  Where its leading coefficient vanishes the next
    one leads, and where the whole equation vanishes, as it does everywhere
    without a solved variable, every value in ``_rs`` is a candidate.  Each
    in-bound candidate is checked exactly against every equation: those
    without the candidate variable by a guard in front of the candidates, once
    per driver point, and the others at the candidate itself.
    """
    names = [f"v{i}" for i in range(len(variables))]
    point = "".join(f"{name}, " for name in names)
    terms = [p.integer_terms() for p in polys]
    sources = [_term_source(t, names) for t in terms]
    slot = _candidate_slot(variables, solved)
    drivers = [i for i in range(len(variables)) if i != slot]
    inner = drivers[-1] if drivers else None
    degrees = [max(exps[slot] for _, exps in t) for t in terms]
    guards = [source for source, d in zip(sources, degrees) if not d]
    checks = [source for source, d in zip(sources, degrees) if d]
    lines = [
        "def _scan(_outer, _inner, _rs):",
        "    visited = 0",
        "    _found = []",
        f"    for {''.join(f'{names[i]}, ' for i in drivers[:-1]).rstrip() or '_'} in _outer:",
    ]

    def emit(depth: int, text: str):
        lines.append("    " * depth + text)

    # parts[j][k]: the terms of the coefficient of solved^j with inner^k, all
    # over the polynomial's one denominator (scaling each coefficient on its
    # own would change the roots); no parts without a solved variable
    parts: list[dict] = []
    if solved is not None:
        # the solved variable has degree 1 or 2 here, see _choose_solved_variable
        degree, first = min(
            ((d, t) for t, d in zip(terms, degrees) if d), key=lambda item: item[0]
        )
        parts = [{} for _ in range(degree + 1)]
        for coeff, exps in first:
            k = 0 if inner is None else exps[inner]
            parts[exps[slot]].setdefault(k, []).append((coeff, exps))
    outer = drivers[:-1]
    outer_names = [n if i in outer else None for i, n in enumerate(names)]
    horner = []  # the coefficient of solved^j, by Horner in the inner driver
    for j, by_power in enumerate(parts):
        acc = None
        for k in range(max(by_power, default=0), -1, -1):
            term = None
            if k in by_power:
                term = _term_source(by_power[k], outer_names)
                if any(exps[i] for _, exps in by_power[k] for i in outer):
                    emit(2, f"_c{j}_{k} = {term}")  # once per outer point
                    term = f"_c{j}_{k}"
            if acc is None:
                acc = term
            else:
                acc = f"({acc})*{names[inner]}" + (f" + {term}" if term else "")
        horner.append(acc or "0")

    def candidates(j: int, depth: int):
        """Emit ``_cands`` for the driver points at which the coefficients of
        the solved variable's powers above j vanish."""
        if j < 0:
            emit(depth, "_cands = _rs")  # the equation vanishes identically
            return
        if not parts[j]:
            candidates(j - 1, depth)  # a zero coefficient
            return
        constant = all(sum(exps) == j for part in parts[j].values() for _, exps in part)
        lead, inline = horner[j], depth
        if not constant:
            emit(depth, f"_a = {lead}")
            emit(depth, "if _a:")
            lead, inline = "_a", depth + 1
        if j == 2:
            emit(inline, f"_cands = _quadratic({horner[0]}, {horner[1]}, {lead})[1] or ()")
        elif j == 1:
            emit(inline, f"_b = {horner[0]}")
            emit(inline, f"if _b % {lead}:")
            emit(inline + 1, "continue")
            emit(inline, f"_cands = (-_b // {lead},)")
        else:
            emit(inline, "continue")  # a nonzero constant has no zeros
        if not constant:
            emit(depth, "else:")
            candidates(j - 1, depth + 1)

    depth = 2
    if inner is not None:
        emit(2, f"for {names[inner]} in _inner:")
        depth = 3
    if guards:
        emit(depth, f"if {' or '.join(guards)}:")
        emit(depth + 1, "continue")
    candidates(len(parts) - 1, depth)
    emit(depth, f"for {names[slot]} in _cands:")
    emit(depth + 1, f"if {names[slot]} in _rs:")
    emit(depth + 2, "visited += 1")
    emit(depth + 2, f"if not ({' or '.join(checks) or '0'}):")
    emit(depth + 3, f"_found.append(({point}))")
    emit(1, "return visited, _found")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# local obstruction

#: The prime powers up to 16, in increasing order.  By the Chinese remainder
#: theorem a system with a zero modulo each of them has one modulo every
#: m <= 16, so no other modulus in that range can add an obstruction.
_LOCAL_MODULI = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
_NO_OBSTRUCTION = "no local obstruction modulo " + ", ".join(map(str, _LOCAL_MODULI))


#: The residue search nests one loop per free variable, and Python 3.10-3.12
#: refuse more than 20 ("too many statically nested blocks"): neither the
#: search nor its replay runs on more variables.
_MAX_RESIDUE_VARIABLES = 20


def _local_obstruction(polys, variables: Sequence[str], moduli) -> Optional[int]:
    """The first of ``moduli`` modulo which the cleared integer forms of
    ``polys`` have no common zero, or None when each modulus has one.

    The polynomials must be nonconstant and use only ``variables``, at most
    ``_MAX_RESIDUE_VARIABLES`` of them.  Each call compiles ``_zero(q)``: one
    loop over the residues mod q per variable, in order, each skipping the
    residues at which an equation whose last variable it sets is nonzero.
    An integer solution would give a common zero modulo every m, so an empty
    search proves that none exists.
    """
    # the integer sources of the equations whose last variable is the j-th,
    # with the j-th variable named v{j}
    levels: list[list[str]] = [[] for _ in variables]
    for poly in polys:
        depth = max(map(variables.index, poly.used_variables()))
        names = [f"v{variables.index(v)}" if v in variables else None for v in poly.variables]
        levels[depth].append(_term_source(poly.integer_terms(), names))
    lines = ["def _zero(q):"]
    for j, level in enumerate(levels):
        indent = "    " * (j + 1)
        lines.append(f"{indent}for v{j} in _range(q):")
        if level:
            lines.append(f"{indent}    if {' or '.join(f'{s} % q' for s in level)}:")
            lines.append(f"{indent}        continue")
    lines.append("    " * (len(levels) + 1) + "return True")
    lines.append("    return False")
    zero = _load("\n".join(lines) + "\n", "_zero", _range=range)
    return next((q for q in moduli if not zero(q)), None)


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class SolverConfig:
    """Budget and strategy knobs; everything is deterministic."""

    bounds: Optional[dict[str, tuple[int, int]]] = None
    max_scan: int = 50_000_000

    def __post_init__(self):
        if self.max_scan < 0:
            raise ValueError(f"max_scan must be at least 0, got {self.max_scan}")
        for name, (lo, hi) in (self.bounds or {}).items():
            if lo > hi:
                raise ValueError(f"empty bounds for {name}: {lo} > {hi}")


@dataclass(frozen=True)
class SearchReport:
    verdict: str
    variables: tuple[str, ...]
    solutions: tuple[dict, ...] = ()
    certificate: Optional[dict] = None
    bounds: Optional[dict] = None
    visited: int = 0
    elapsed_ms: Optional[float] = None
    n: Optional[int] = None
    branch: Optional[str] = None
    substitutions: tuple[dict, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        """The report without ``elapsed_ms``: timing never enters it."""
        return {
            "n": self.n,
            "branch": self.branch,
            "verdict": self.verdict,
            "variables": list(self.variables),
            "solutions": [
                {name: str(value) for name, value in solution.items()}
                for solution in self.solutions
            ],
            "certificate": self.certificate,
            "bounds": None
            if self.bounds is None
            else {name: [str(lo), str(hi)] for name, (lo, hi) in self.bounds.items()},
            "visited": str(self.visited),
            "substitutions": list(self.substitutions),
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


_INTEGER_STRING = {"type": "string", "pattern": "^-?[0-9]+$"}

_SUBSTITUTION_SCHEMA = {
    "type": "object",
    "required": ["variable", "expression", "combination", "pass"],
    "properties": {
        "variable": {"type": "string"},
        "expression": {"type": "array", "items": MONOMIAL_SCHEMA},
        "combination": {
            "type": "array",
            "items": {
                "type": "array",
                "items": [{"type": "integer", "minimum": 0}, {"type": "string"}],
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "pass": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_CERTIFICATE_SCHEMA = {
    "type": "object",
    "required": ["kind", "substitutions"],
    "properties": {"substitutions": {"type": "array", "items": _SUBSTITUTION_SCHEMA}},
    "oneOf": [
        {
            "properties": {"kind": {"const": "linear_inconsistency"}},
            "required": ["combination", "pass", "constant"],
        },
        {
            "properties": {"kind": {"const": "nonintegral_value"}},
            "required": ["variable", "value", "combination", "pass"],
        },
        {
            "properties": {"kind": {"const": "root_free"}},
            "required": [
                "variable",
                "source_index",
                "provenance",
                "scale",
                "integer_coefficients",
                "evidence",
            ],
        },
        {
            "properties": {"kind": {"const": "candidate_exhaustion"}},
            "required": ["variable", "equations", "candidates"],
        },
        {
            "properties": {
                "kind": {"const": "local_obstruction"},
                "modulus": {"enum": list(_LOCAL_MODULI)},
            },
            "required": ["modulus"],
        },
    ],
}

#: JSON shape of :meth:`SearchReport.to_json_dict`.
REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "integer solvability report",
    "type": "object",
    "required": [
        "n",
        "branch",
        "verdict",
        "variables",
        "solutions",
        "certificate",
        "bounds",
        "visited",
        "substitutions",
        "notes",
    ],
    "properties": {
        "n": {"type": ["integer", "null"]},
        "branch": {"enum": [b.value for b in Branch] + [None]},
        "verdict": {
            "enum": [VERDICT_SOLUTIONS, VERDICT_NO_SOLUTION, VERDICT_INCONCLUSIVE]
        },
        "variables": {"type": "array", "items": {"type": "string"}},
        "solutions": {
            "type": "array",
            "items": {"type": "object", "additionalProperties": _INTEGER_STRING},
        },
        "certificate": {"oneOf": [{"type": "null"}, _CERTIFICATE_SCHEMA]},
        "bounds": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "additionalProperties": {
                        "type": "array",
                        "items": _INTEGER_STRING,
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            ]
        },
        "visited": {"type": "string", "pattern": "^[0-9]+$"},
        # readable elimination trace; replayable records live in the certificate
        "substitutions": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["variable", "expression", "pass"],
                "properties": {
                    "variable": {"type": "string"},
                    "expression": {"type": "string"},
                    "pass": {"type": "integer", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


def _transform(poly: MultivariatePolynomial, substitutions, before_pass: Optional[int]):
    """Apply recorded substitutions (optionally only those from passes before
    ``before_pass``) in recording order."""
    for sub in substitutions:
        if before_pass is not None and sub.pass_index >= before_pass:
            continue
        poly = poly.substitute({sub.variable: sub.expression})
    return poly


def _substitutions_from_json(variables, records) -> list[Substitution]:
    subs = []
    for record in records:
        subs.append(
            Substitution(
                record["variable"],
                MultivariatePolynomial.from_json_terms(variables, record["expression"]),
                tuple((int(i), _parse_fr(m)) for i, m in record["combination"]),
                int(record["pass"]),
            )
        )
    return subs


def _combine(system: EquationSystem, subs, combination, before_pass: int):
    """sum mult * eq_index over the ``(index, mult)`` pairs of a recorded
    combination, each equation taken after the substitutions of the passes
    before ``before_pass``."""
    acc = MultivariatePolynomial.zero(system.variables)
    for index, mult in combination:
        index = int(index)
        if not 0 <= index < len(system.equations):
            raise IndexError(f"equation index {index} out of range")
        transformed = _transform(system.equations[index].polynomial, subs, before_pass)
        acc = acc + _parse_fr(mult) * transformed
    return acc


def _recorded_equation(system: EquationSystem, subs, record: dict):
    """The equation a root certificate names by ``source_index``, after every
    recorded substitution; its recorded ``provenance`` must match."""
    index = int(record["source_index"])
    if not 0 <= index < len(system.equations):
        raise IndexError(f"equation index {index} out of range")
    equation = system.equations[index]
    if record["provenance"] != equation.provenance:
        raise ValueError(f"equation {index} is {equation.provenance}, not {record['provenance']}")
    return _transform(equation.polynomial, subs, None)


def verify_certificate(system: EquationSystem, certificate: dict) -> bool:
    """Replay a no-solution certificate against the original system.

    Returns False rather than raising on malformed input, so stored reports
    can be re-checked without trusting their shape.
    """
    if not isinstance(certificate, dict):
        return False
    try:
        return _verify_certificate(system, certificate)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError,
            OverflowError, RootSearchOverflow):
        return False


def _verify_certificate(system: EquationSystem, certificate: dict) -> bool:
    variables = system.variables
    subs = _substitutions_from_json(variables, certificate.get("substitutions", []))

    # every recorded substitution must be the linear combination it claims
    for sub in subs:
        acc = _combine(system, subs, sub.combination, sub.pass_index)
        target = MultivariatePolynomial.variable(sub.variable, variables) - sub.expression
        if acc != target:
            return False

    kind = certificate.get("kind")
    if kind == "linear_inconsistency":
        acc = _combine(system, subs, certificate["combination"], int(certificate["pass"]))
        constant = _parse_fr(certificate["constant"])
        return constant != 0 and acc == constant

    if kind == "nonintegral_value":
        acc = _combine(system, subs, certificate["combination"], int(certificate["pass"]))
        value = _parse_fr(certificate["value"])
        target = (
            MultivariatePolynomial.variable(certificate["variable"], variables) - value
        )
        return value.denominator != 1 and acc == target

    if kind == "root_free":
        # replay by recomputation: the same analysis, to the last evidence field
        analysis = univariate_integer_roots(_recorded_equation(system, subs, certificate))
        return (
            not analysis.roots
            and analysis.variable == certificate["variable"]
            and analysis.scale == _parse_fr(certificate["scale"])
            and analysis.primitive_coefficients
            == tuple(int(c) for c in certificate["integer_coefficients"])
            and analysis.evidence == certificate["evidence"]
        )

    if kind == "candidate_exhaustion":
        variable = certificate["variable"]
        candidate_sets = []
        for item in certificate["equations"]:
            analysis = univariate_integer_roots(_recorded_equation(system, subs, item))
            # root sets of different variables prove nothing by intersecting
            if analysis.variable != variable:
                return False
            if tuple(int(r) for r in item["roots"]) != analysis.roots:
                return False
            candidate_sets.append(set(analysis.roots))
        if not candidate_sets:
            return False  # an exhaustion over no equations would certify anything
        candidates = sorted(set.intersection(*candidate_sets))
        if [int(c) for c in certificate["candidates"]] != candidates:
            return False
        # none of the surviving candidates may extend to an integer solution
        reduced = ReducedSystem(system, tuple(subs), (), (variable,), None)
        return not reduced.integer_solutions({variable: c} for c in candidates)

    if kind == "local_obstruction":
        # a listed modulus only, so a stored certificate cannot force a long walk
        modulus = certificate["modulus"]
        if not isinstance(modulus, int) or modulus not in _LOCAL_MODULI:
            return False
        substituted = {sub.variable for sub in subs}
        residues = [_transform(eq.polynomial, subs, None) for eq in system.equations]
        residues = [poly for poly in residues if poly]
        for poly in residues:
            # the substitutions must be the whole linear part, so the search
            # runs on the residual system and never on the raw one
            if poly.total_degree() <= 1 or poly.used_variables() & substituted:
                return False
        free = [v for v in variables if v not in substituted]
        if len(free) > _MAX_RESIDUE_VARIABLES:
            return False
        return _local_obstruction(residues, free, (modulus,)) == modulus

    return False


def _default_bounds(system: EquationSystem, names) -> dict:
    if system.n is None:
        raise ValueError("explicit bounds are required for systems without n")
    bounds = {}
    for name in names:
        if not name.startswith("c"):
            raise ValueError(f"no default bound rule for variable {name!r}")
        i = int(name[1:])
        b = math.comb(system.n + 1, i) * _BOUND_SCALE
        bounds[name] = (-b, b)
    return bounds


def solve_system(system: EquationSystem, config: Optional[SolverConfig] = None) -> SearchReport:
    """Reduce, then decide: certificate, exact roots, residues, or bounded search."""
    config = config or SolverConfig()
    requested = config.bounds or {}
    unknown = sorted(set(requested) - set(system.variables))
    if unknown:
        raise ValueError(f"bounds given for unknown variables: {', '.join(unknown)}")
    start = time.perf_counter()
    reduced = linear_reduce(system)
    trace = tuple(
        {
            "variable": s.variable,
            "expression": str(s.expression),
            "pass": s.pass_index,
        }
        for s in reduced.substitutions
    )

    def finish(report: SearchReport) -> SearchReport:
        # reduction and root analysis ignore the intervals: drop what lies outside
        found = report.solutions
        kept = tuple(s for s in found if all(a <= s[v] <= b for v, (a, b) in requested.items()))
        if kept != found:
            note = f"dropped {len(found) - len(kept)} of {len(found)} solutions outside the bounds"
            report = replace(
                report,
                verdict=VERDICT_SOLUTIONS if kept else VERDICT_INCONCLUSIVE,
                solutions=kept,
                notes=report.notes + (note,),
            )
        _audit(system, report)
        return replace(
            report,
            elapsed_ms=(time.perf_counter() - start) * 1000.0,
            n=system.n,
            branch=system.branch.value if system.branch else None,
            substitutions=trace,
        )

    if reduced.inconsistency is not None:
        return finish(
            SearchReport(
                VERDICT_NO_SOLUTION,
                system.variables,
                certificate=reduced.inconsistency,
            )
        )

    for sub in reduced.substitutions:
        if sub.expression.is_constant():
            value = sub.expression.constant_value()
            if value.denominator != 1:
                certificate = {
                    "kind": "nonintegral_value",
                    "variable": sub.variable,
                    "value": _fr_str(value),
                    "substitutions": [
                        s.to_json_dict()
                        for s in reduced.substitutions
                        if s.pass_index < sub.pass_index
                    ],
                    "combination": [[i, _fr_str(m)] for i, m in sub.combination],
                    "pass": sub.pass_index,
                }
                return finish(
                    SearchReport(
                        VERDICT_NO_SOLUTION, system.variables, certificate=certificate
                    )
                )

    free = reduced.free_variables
    residual = reduced.residual

    if not residual:
        if free:
            return finish(
                SearchReport(
                    VERDICT_INCONCLUSIVE,
                    system.variables,
                    notes=(
                        "free variables are unconstrained after reduction; "
                        "no finite verdict",
                    ),
                )
            )
        # the only point; _audit re-substitutes it, so check integrality only
        point = reduced.extend({})
        if any(v.denominator != 1 for v in point.values()):
            return finish(
                SearchReport(
                    VERDICT_INCONCLUSIVE,
                    system.variables,
                    notes=(
                        "reduction forces a single point that is not integral; "
                        "no certificate kind records it",
                    ),
                )
            )
        solution = {name: int(v) for name, v in point.items()}
        return finish(
            SearchReport(
                VERDICT_SOLUTIONS, system.variables, solutions=(solution,), visited=1
            )
        )

    notes: tuple[str, ...] = ()
    if len(free) == 1:
        try:
            return finish(_single_variable_verdict(system, reduced, free[0]))
        except RootSearchOverflow as refusal:
            notes = (f"root analysis refused: {refusal}; fell back to bounded enumeration",)

    bounds = dict(requested)
    missing = [name for name in free if name not in bounds]
    if missing:
        bounds.update(_default_bounds(system, missing))
    bounds = {name: bounds[name] for name in free}

    # the residue search goes first when it costs no more than the box scan,
    # and after it when the box holds no solution and the budget allows it
    polys = [res.polynomial for res in residual]
    solved, scan = _scan_plan(polys, bounds, free)
    residue_note: tuple[str, ...] = ()
    cost = sum(q ** len(free) for q in _LOCAL_MODULI)
    searchable = len(free) <= _MAX_RESIDUE_VARIABLES and cost <= config.max_scan

    def residue_verdict(visited: int = 0) -> Optional[SearchReport]:
        modulus = _local_obstruction(polys, free, _LOCAL_MODULI)
        if modulus is None:
            return None
        certificate = {
            "kind": "local_obstruction",
            "modulus": modulus,
            "substitutions": [s.to_json_dict() for s in reduced.substitutions],
        }
        return finish(
            SearchReport(
                VERDICT_NO_SOLUTION,
                system.variables,
                certificate=certificate,
                visited=visited,
                notes=notes,
            )
        )

    if searchable and cost <= scan:
        report = residue_verdict()
        if report is not None:
            return report
        residue_note = (_NO_OBSTRUCTION,)

    try:
        outcome = bounded_enumerate(
            reduced.residual_system(), bounds, max_scan=config.max_scan, _plan=(solved, scan)
        )
    except EnumerationBudget as budget:
        return finish(
            SearchReport(
                VERDICT_INCONCLUSIVE,
                system.variables,
                bounds=bounds,
                notes=notes + residue_note + (str(budget),),
            )
        )

    solutions = reduced.integer_solutions(outcome.assignments)
    if solutions:
        return finish(
            SearchReport(
                VERDICT_SOLUTIONS,
                system.variables,
                solutions=tuple(solutions),
                bounds=bounds,
                visited=outcome.visited,
                notes=notes,
            )
        )
    if searchable and not residue_note:
        report = residue_verdict(outcome.visited)
        if report is not None:
            return report
        residue_note = (_NO_OBSTRUCTION,)
    return finish(
        SearchReport(
            VERDICT_INCONCLUSIVE,
            system.variables,
            bounds=bounds,
            visited=outcome.visited,
            notes=notes + residue_note + ("box exhausted without integer solutions",),
        )
    )


def _single_variable_verdict(system, reduced: ReducedSystem, variable: str) -> SearchReport:
    analyses = []
    for res in reduced.residual:
        analysis = univariate_integer_roots(res.polynomial)
        if not analysis.roots:
            certificate = {
                "kind": "root_free",
                "variable": variable,
                "source_index": res.index,
                "provenance": res.provenance,
                "scale": _fr_str(analysis.scale),
                "integer_coefficients": [str(c) for c in analysis.primitive_coefficients],
                "evidence": analysis.evidence,
                "substitutions": [s.to_json_dict() for s in reduced.substitutions],
            }
            return SearchReport(
                VERDICT_NO_SOLUTION, system.variables, certificate=certificate
            )
        analyses.append((res, analysis))

    candidates = sorted(set.intersection(*(set(a.roots) for _, a in analyses)))
    solutions = reduced.integer_solutions({variable: c} for c in candidates)
    if solutions:
        return SearchReport(
            VERDICT_SOLUTIONS,
            system.variables,
            solutions=tuple(solutions),
            visited=len(candidates),
        )
    certificate = {
        "kind": "candidate_exhaustion",
        "variable": variable,
        "equations": [
            {
                "source_index": res.index,
                "provenance": res.provenance,
                "roots": [str(r) for r in analysis.roots],
            }
            for res, analysis in analyses
        ],
        "candidates": [str(c) for c in candidates],
        "substitutions": [s.to_json_dict() for s in reduced.substitutions],
    }
    return SearchReport(
        VERDICT_NO_SOLUTION,
        system.variables,
        certificate=certificate,
        visited=len(candidates),
    )


def _audit(system: EquationSystem, report: SearchReport):
    """Last line of defense before a report leaves the solver."""
    if report.verdict == VERDICT_SOLUTIONS:
        if not report.solutions:
            raise SoundnessError("solutions verdict without solutions")
        for solution in report.solutions:
            if not system.satisfied_by(solution):
                raise SoundnessError(f"reported solution {solution} fails re-substitution")
    elif report.verdict == VERDICT_NO_SOLUTION:
        if not verify_certificate(system, report.certificate):
            raise SoundnessError("no-solution certificate failed replay")


def classify(
    n: int, branch: Branch, config: Optional[SolverConfig] = None
) -> SearchReport:
    """Generate the (M, D) system for the given dimension and branch and
    decide its integer solvability within the configured budget."""
    system = generate_system(n, branch)
    return solve_system(system, config)
