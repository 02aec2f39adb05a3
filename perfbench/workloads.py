"""The benchmark's workloads: what one pass runs and how each output is checked.

Each workload is a fixed list of ops.  ``run`` is the timed call into the
package's public API; ``check`` runs outside the timed region and returns a
reason when the output is wrong.  Layer functions are looked up on their
modules at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from chiy import cli, fujita, solve
from chiy.fujita import Branch

import planted

REFERENCE = Path(__file__).with_name("reference.json")
DECIDED = (solve.VERDICT_SOLUTIONS, solve.VERDICT_NO_SOLUTION)


def system_digest(system) -> str:
    """SHA-256 of a system's variables, provenances and exact terms, leaving
    out the schema envelope (``n``, ``branch``, ``mode``)."""
    body = {
        "variables": list(system.variables),
        "equations": [[eq.provenance, eq.polynomial.to_json_terms()] for eq in system.equations],
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def binomial_vector(n: int) -> dict:
    return {f"c{i}": math.comb(n + 1, i) for i in range(2, n)}


class Generate:
    """``generate_system(n, branch)`` for n = 5..13 on both branches."""

    name = "generate"
    # name -> (op labels, scale, unit): the sum of the labels' median times
    NAMED = {
        "system_n7_s": (("n7/standard", "n7/half"), 0.5, "s"),
        "system_n13_s": (("n13/standard", "n13/half"), 0.5, "s"),
    }

    def __init__(self, seed: int):
        self.ops = [(n, branch) for n in (5, 7, 9, 11, 13) for branch in Branch]
        self.reference = json.loads(REFERENCE.read_text())

    def label(self, op) -> str:
        n, branch = op
        return f"n{n}/{branch.value}"

    def run(self, op):
        return fujita.generate_system(*op)

    def check(self, op, system):
        n, branch = op
        if system_digest(system) != self.reference[self.label(op)]:
            return "system differs from the reference digest"
        if branch is Branch.STANDARD and not system.satisfied_by(binomial_vector(n)):
            return "standard system rejects the binomial vector"
        return None

    def verdict(self, output):
        return None


class Classify:
    """``chiy classify --n N --branch B`` in-process for N = 3, 5, 7."""

    name = "classify"
    NAMED = {
        "verdict_n7_half_s": (("n7/half",), 1, "s"),
        "verdict_n7_standard_s": (("n7/standard",), 1, "s"),
        "verdict_small_ms": (("n3/standard", "n3/half", "n5/standard", "n5/half"), 1000, "ms"),
    }

    def __init__(self, seed: int):
        self.ops = [(n, branch) for n in (3, 5, 7) for branch in Branch]
        self._fresh = {}

    def label(self, op) -> str:
        n, branch = op
        return f"n{n}/{branch.value}"

    def run(self, op):
        n, branch = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["classify", "--n", str(n), "--branch", branch.value])
        return code, out.getvalue()

    def check(self, op, output):
        n, branch = op
        code, stdout = output
        report = json.loads(stdout)
        verdict = report["verdict"]
        if code != (cli.EXIT_INCONCLUSIVE if verdict == solve.VERDICT_INCONCLUSIVE else cli.EXIT_OK):
            return f"exit code {code} for verdict {verdict}"
        if op not in self._fresh:
            self._fresh[op] = fujita.generate_system(n, branch)
        system = self._fresh[op]
        solutions = [{k: int(v) for k, v in s.items()} for s in report["solutions"]]
        if branch is Branch.HALF and n in (3, 5) and verdict != solve.VERDICT_NO_SOLUTION:
            return f"half branch n = {n} must have no integer solution, got {verdict}"
        if branch is Branch.STANDARD and binomial_vector(n) not in solutions:
            return "standard verdict misses the binomial vector"
        if not all(system.satisfied_by(s) for s in solutions):
            return "a reported solution fails re-substitution"
        if verdict == solve.VERDICT_NO_SOLUTION and not solve.verify_certificate(
            system, report["certificate"]
        ):
            return "certificate fails replay"
        if verdict == solve.VERDICT_INCONCLUSIVE and not report["notes"]:
            return "inconclusive verdict without notes"
        return None

    def verdict(self, output):
        return json.loads(output[1])["verdict"]


class Planted:
    """``solve_system`` on seeded planted systems in 1-3 variables."""

    name = "planted"
    NAMED = {}
    SYSTEMS = 1000

    def __init__(self, seed: int):
        self.ops = planted.planted_systems(random.Random(seed), self.SYSTEMS)

    def label(self, op) -> str:
        return f"{op.kind}/{len(op.system.variables)}"

    def run(self, op):
        return solve.solve_system(op.system, solve.SolverConfig(bounds=op.bounds))

    def check(self, op, report):
        names = op.system.variables
        if op.expected is None:
            if report.verdict != solve.VERDICT_NO_SOLUTION:
                return f"infeasible system reported as {report.verdict}"
            if not solve.verify_certificate(op.system, report.certificate):
                return "certificate fails replay"
            return None
        found = frozenset(tuple(s[v] for v in names) for s in report.solutions)
        if report.verdict != solve.VERDICT_SOLUTIONS or found != op.expected:
            return f"planted set not recovered: {report.verdict}"
        return None

    def verdict(self, report):
        return report.verdict


WORKLOADS = {w.name: w for w in (Generate, Classify, Planted)}


def build(name: str, seed: int):
    return WORKLOADS[name](seed)
