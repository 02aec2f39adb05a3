"""Command-line front end.

Exit codes: 0 success (or expected verdict), 1 failed internal check or
unexpected verdict, 2 inconclusive search, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .chern import ChernVector, projective_space, todd_class
from .fujita import (
    Branch,
    dichotomy_roots,
    forced_values,
    generate_system,
    parity_admissible,
    alternating_sum_check,
)
from .genus import (
    ChiYPolynomial,
    HodgeDiamond,
    a1_closed_form,
    chi_y_from_chern,
    chi_y_from_hodge,
    expand_at_minus_one,
    pinned_products,
)
from .solve import (
    SolverConfig,
    SoundnessError,
    VERDICT_INCONCLUSIVE,
    _fr_str,
    classify,
    linear_reduce,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for
    inconclusive searches and use 64 (EX_USAGE) instead."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w") as handle:
            handle.write(text)
            if not text.endswith("\n"):
                handle.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# pn-verify


def _cmd_pn_verify(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    lines = []
    first_failure = None
    for n in range(1, args.max_n + 1):
        c = projective_space(n)
        chi = chi_y_from_chern(c)
        reference = chi_y_from_hodge(HodgeDiamond.projective_space(n))
        expansion = expand_at_minus_one(chi)
        checks = [
            ("chi_y", chi == reference),
            ("todd_normalization", todd_class(c).coefficients[n] == 1),
            ("euler", expansion.A(0) == n + 1),
            ("a1_closed_form", expansion.A(1) == a1_closed_form(c)),
            ("alternating_sum", alternating_sum_check(c)),
        ]
        if n >= 2:  # the A_1 product identities need both c_1 and c_{n-1}
            pp = pinned_products(n)
            a1_pinned = (
                Fraction(n * (3 * n - 5), 24) * pp.euler_m
                + Fraction(1, 12) * pp.c1_cn1_m
            )
            checks.append(("euler_pinned", expansion.A(0) == pp.euler_m))
            checks.append(
                ("c1_cn1_pinned", c.scalar(1) * c.scalar(n - 1) == pp.c1_cn1_m)
            )
            checks.append(("a1_pinned", expansion.A(1) == a1_pinned))
        failed = [name for name, ok in checks if not ok]
        status = "ok" if not failed else "FAIL(" + ",".join(failed) + ")"
        lines.append(f"n={n:<3d} {status}")
        if failed and first_failure is None:
            first_failure = (n, failed)
    _emit("\n".join(lines), args.output)
    if first_failure is not None:
        n, failed = first_failure
        print(f"verification failed at n={n}: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# genus


def _render_chi_y(chi: ChiYPolynomial) -> str:
    pieces = []
    for p, c in enumerate(chi.chi_p):
        if c == 0:
            continue
        magnitude = _fr_str(abs(c))
        if p == 0:
            body = magnitude
        else:
            power = "y" if p == 1 else f"y^{p}"
            body = power if magnitude == "1" else f"{magnitude}*{power}"
        pieces.append(("- " if c < 0 else "+ ") + body)
    if not pieces:
        return "0"
    head = pieces[0][2:] if pieces[0].startswith("+ ") else "-" + pieces[0][2:]
    return " ".join([head] + pieces[1:])


def _cmd_genus(args) -> int:
    a1_check = None
    if args.chern is not None:
        try:
            entries = [Fraction(part) for part in args.chern.split(",")]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in --chern {args.chern!r}") from None
        c = ChernVector(entries)
        chi = chi_y_from_chern(c)
        n = c.n
        a1_check = a1_closed_form(c)
    else:
        diamond = HodgeDiamond.from_path(args.hodge)
        chi = chi_y_from_hodge(diamond)
        n = diamond.n
    expansion = expand_at_minus_one(chi)
    violations = chi.integrality_violations()
    payload = {
        "n": n,
        "chi": [_fr_str(c) for c in chi.chi_p],
        "chi_y": _render_chi_y(chi),
        "a": [_fr_str(c) for c in expansion.coefficients],
        "A": [_fr_str(expansion.A(k)) for k in range(n // 2 + 1)],
        "integral": not violations,
        "violations": violations,
    }
    if a1_check is not None:
        payload["a1_closed_form"] = _fr_str(a1_check)
        payload["a1_consistent"] = expansion.A(1) == a1_check
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"n = {n}"]
        lines.append(f"chi_y = {payload['chi_y']}")
        lines.append(
            "chi_p: " + ", ".join(f"chi_{p}={_fr_str(c)}" for p, c in enumerate(chi.chi_p))
        )
        lines.append(
            "a_j:   " + ", ".join(_fr_str(c) for c in expansion.coefficients)
        )
        lines.append(
            "A:     " + ", ".join(f"A_{k}={_fr_str(expansion.A(k))}" for k in range(n // 2 + 1))
        )
        if a1_check is not None:
            verdict = "ok" if payload["a1_consistent"] else "MISMATCH"
            lines.append(f"a1 closed form: {_fr_str(a1_check)} ({verdict})")
        if violations:
            lines.append(f"WARNING: non-integral chi_p at p in {violations}")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# system


def _cmd_system(args) -> int:
    system = generate_system(args.n, Branch(args.branch))
    if Branch(args.branch) is Branch.STANDARD:
        # the binomial vector must satisfy its own system; refuse to emit junk
        binomial = {
            f"c{i}": Fraction(math.comb(args.n + 1, i)) for i in range(2, args.n)
        }
        if not system.satisfied_by(binomial):
            raise SoundnessError(
                f"standard system for n={args.n} rejects the binomial vector"
            )
    if args.reduced:
        reduced = linear_reduce(system)
        payload = {
            "system": system.to_json_dict(),
            "substitutions": [s.to_json_dict() for s in reduced.substitutions],
            "free_variables": list(reduced.free_variables),
            "residual": reduced.residual_system().to_json_dict(),
            "inconsistency": reduced.inconsistency,
        }
    else:
        payload = system.to_json_dict()
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify


def _parse_bounds(text: str) -> dict:
    bounds = {}
    for piece in text.split(","):
        name, _, span = piece.partition("=")
        lo, _, hi = span.partition(":")
        name = name.strip()
        if not name or not lo or not hi:
            raise ValueError(f"malformed bounds entry {piece!r}; expected var=lo:hi")
        if name in bounds:
            raise ValueError(f"bounds for {name} given twice")
        bounds[name] = (int(lo), int(hi))
    return bounds


def _cmd_classify(args) -> int:
    config = SolverConfig(
        bounds=_parse_bounds(args.bounds) if args.bounds else None,
        max_scan=args.max_scan,
    )
    report = classify(args.n, Branch(args.branch), config)
    # timing goes to stderr so stdout stays byte-for-byte reproducible
    print(f"elapsed: {report.elapsed_ms:.1f} ms", file=sys.stderr)
    _emit(
        json.dumps(report.to_json_dict(), indent=2, sort_keys=True),
        args.output,
    )
    if args.expect:
        return EXIT_OK if report.verdict == args.expect else EXIT_FAILED
    if report.verdict == VERDICT_INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> int:
    header = [
        "n",
        "root_standard",
        "root_half",
        "half_integral",
        "admissible",
        "c_top_minus_one_m",
        "c_top_minus_two_d",
        "note",
    ]
    rows = []
    for n in range(2, args.max_n + 1):
        roots = dichotomy_roots(n)
        flags = roots.integral_flags()
        admissible = parity_admissible(n)
        forced_m = forced_d = ""
        note = ""
        if admissible:
            forced = forced_values(n)
            forced_m = str(forced.c_top_minus_one_m)
            forced_d = str(forced.c_top_minus_two_d)
            if forced.inconsistency:
                note = forced.inconsistency
        rows.append(
            [
                str(n),
                _fr_str(roots.roots[0]),
                _fr_str(roots.roots[1]),
                str(flags[1]).lower(),
                str(admissible).lower(),
                forced_m,
                forced_d,
                note,
            ]
        )
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    elif args.format == "text":
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        # no padding after the last non-empty cell, so no line ends in spaces
        lines = [
            "  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
            for row in [header] + rows
        ]
        _emit("\n".join(lines), args.output)
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)
        _emit(buffer.getvalue(), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chiy",
        description=(
            "Exact chi_y-genus workbench: projective-space verification, genus "
            "computation from Chern or Hodge data, and integer solvability of "
            "the induced (M, D) constraint systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pn-verify", help="self-check the pipeline on projective spaces")
    p.add_argument("--max-n", type=int, default=12)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_pn_verify)

    p = sub.add_parser("genus", help="chi_y genus from Chern numbers or a Hodge diamond")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chern", help="comma-separated c_1,...,c_n (top intersection numbers)")
    group.add_argument("--hodge", help="path to a whitespace Hodge diamond file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_genus)

    p = sub.add_parser("system", help="emit the (M, D) constraint system as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--branch", choices=[b.value for b in Branch], required=True)
    p.add_argument("--reduced", action="store_true", help="also run linear reduction")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_system)

    p = sub.add_parser("classify", help="decide integer solvability of an (M, D) system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--branch", choices=[b.value for b in Branch], required=True)
    p.add_argument("--bounds", help="override search box, e.g. c2=-100:100,c3=0:50")
    p.add_argument("--max-scan", type=int, default=50_000_000)
    p.add_argument(
        "--expect",
        choices=("no_integer_solution", "solutions", "inconclusive"),
        help="exit 0 only if the verdict matches",
    )
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("table", help="dichotomy roots and forced values per dimension")
    p.add_argument("--max-n", type=int, default=19)
    p.add_argument("--format", choices=("csv", "text", "json"), default="csv")
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad usage and on --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SoundnessError as exc:
        print(f"{parser.prog}: internal check failed: {exc}", file=sys.stderr)
        return EXIT_FAILED


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
