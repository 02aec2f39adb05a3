"""Per-layer tracing for the benchmark, installed from outside the package.

Wrappers replace chiy's public layer functions and kernel operators for the
duration of a traced pass and are removed afterwards; the package source is
not touched.  Kernel operators (polynomial and series arithmetic) feed
aggregate counters, because they run hundreds of thousands of times per
pass.  Layer functions record spans with a parent id, kept in memory and
written out as JSONL when the run ends.  Every timed call, span or counter,
sits on one stack, so a span's self time is its duration minus the calls it
made.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

from chiy import polynomials, series

# Layer functions recorded as spans: (module holding the definition, name).
# Each is replaced in every chiy module that imported it by name, so calls
# made through `from .x import f` bindings are seen too.
SPANS = (
    ("chiy.fujita", "generate_system"),
    ("chiy.genus", "chi_y_from_chern"),
    ("chiy.genus", "expand_at_minus_one"),
    ("chiy.chern", "power_sums_to_elementary"),
    ("chiy.chern", "todd_class"),
    ("chiy.solve", "classify"),
    ("chiy.solve", "solve_system"),
    ("chiy.solve", "linear_reduce"),
    ("chiy.solve", "univariate_integer_roots"),
    ("chiy.solve", "bounded_enumerate"),
    ("chiy.solve", "verify_certificate"),
    ("chiy.cli", "main"),
)

# Kernel operators recorded as counters: (class, attribute, counter name).
# `__radd__` and `__rmul__` are aliases bound when the class was created, so
# replacing `__add__` and `__mul__` alone would miss every reflected call.
Poly = polynomials.MultivariatePolynomial
COUNTERS = (
    (Poly, "__mul__", "polynomials.mul"),
    (Poly, "__rmul__", "polynomials.mul"),
    (Poly, "__add__", "polynomials.add"),
    (Poly, "__radd__", "polynomials.add"),
    (Poly, "substitute", "polynomials.substitute"),
    (Poly, "evaluate", "polynomials.evaluate"),
    (series.TruncatedSeries, "__mul__", "series.mul"),
)


def _short(module: str, name: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{name}"


def _coefficient_bits(value) -> int:
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


class Tracer:
    """Collects spans and counters between :meth:`install` and :meth:`uninstall`."""

    def __init__(self):
        self.stack: list[list[float]] = []  # child time of each open call
        self.spans: list[dict] = []
        self._open_spans: list[int] = []
        self._op = None
        self._origin = perf_counter()
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Start the per-pass totals afresh (spans are kept for the JSONL)."""
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.term_products = 0
        self.system_sizes = {"equations": 0, "terms": 0, "bits": 0}
        self.reports = {"visited": 0, "box_points": 0, "enum_visited": 0, "enum_solutions": 0}

    # -- timing ---------------------------------------------------------

    def _enter(self):
        frame = [0.0]
        self.stack.append(frame)
        return frame, perf_counter()

    def _leave(self, name, frame, start):
        elapsed = perf_counter() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += elapsed
        self.calls[name] += 1
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - frame[0]
        return elapsed

    def span(self, name, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._open_spans[-1] if tracer._open_spans else None
            span_id = len(tracer.spans)
            record = {"id": span_id, "parent": parent, "op": tracer._op, "name": name}
            tracer.spans.append(record)
            tracer._open_spans.append(span_id)
            frame, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open_spans.pop()
                record["start"] = start - tracer._origin
                record["seconds"] = tracer._leave(name, frame, start)
                record["self_seconds"] = record["seconds"] - frame[0]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name, fn):
        tracer = self
        products = name == "polynomials.mul"

        def counted(self_, *args):
            if products:
                other = args[0]
                if isinstance(other, Poly):
                    tracer.term_products += len(self_.terms) * len(other.terms)
                elif isinstance(other, (int, Fraction)):
                    tracer.term_products += len(self_.terms)
            frame, start = tracer._enter()
            try:
                return fn(self_, *args)
            finally:
                tracer._leave(name, frame, start)

        return counted

    def op(self, label, fn):
        """Run one benchmark op under a root span; its spans share its id."""
        self._op = len(self.spans)
        try:
            return self.span("op", fn)()
        finally:
            self.spans[self._op]["label"] = label
            self._op = None

    # -- results of the layers, read from their return values -------------

    def _record_system(self, system):
        sizes = self.system_sizes
        coefficients = [c for eq in system.equations for c in eq.polynomial.terms.values()]
        sizes["equations"] = max(sizes["equations"], len(system.equations))
        sizes["terms"] = max(sizes["terms"], len(coefficients))
        sizes["bits"] = max([sizes["bits"]] + [_coefficient_bits(c) for c in coefficients])

    def _record_report(self, report):
        counts = self.reports
        counts["visited"] += report.visited
        if report.bounds:
            counts["box_points"] += math.prod(hi - lo + 1 for lo, hi in report.bounds.values())
            counts["enum_visited"] += report.visited
            counts["enum_solutions"] += len(report.solutions)

    # -- installation -----------------------------------------------------

    def install(self):
        hooks = {
            "fujita.generate_system": self._record_system,
            "solve.solve_system": self._record_report,
        }
        for module_name, attr in SPANS:
            original = getattr(importlib.import_module(module_name), attr)
            name = _short(module_name, attr)
            wrapped = self.span(name, original, hooks.get(name))
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "chiy"]:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        for cls, attr, name in COUNTERS:
            self._patch(cls, attr, self.counter(name, vars(cls)[attr]))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting --------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer numbers of the pass since the last :meth:`reset`."""
        s, own, calls = self.seconds, self.self_seconds, self.calls
        counts = self.reports
        return {
            "polynomials.mul_calls": calls["polynomials.mul"],
            "polynomials.mul_s": s["polynomials.mul"],
            "polynomials.term_products": self.term_products,
            "polynomials.add_calls": calls["polynomials.add"],
            "polynomials.add_s": s["polynomials.add"],
            "polynomials.substitute_s": s["polynomials.substitute"],
            "polynomials.evaluate_s": s["polynomials.evaluate"],
            "series.mul_calls": calls["series.mul"],
            "series.mul_self_s": own["series.mul"],
            "chern.power_sums_to_elementary_s": s["chern.power_sums_to_elementary"],
            "chern.todd_class_s": s["chern.todd_class"],
            "genus.chi_y_from_chern_self_s": own["genus.chi_y_from_chern"],
            "genus.expand_at_minus_one_s": s["genus.expand_at_minus_one"],
            "fujita.generate_system_self_s": own["fujita.generate_system"],
            "fujita.equations": self.system_sizes["equations"],
            "fujita.system_terms": self.system_sizes["terms"],
            "fujita.max_coeff_bits": self.system_sizes["bits"],
            "solve.linear_reduce_s": s["solve.linear_reduce"],
            "solve.linear_reduce_calls": calls["solve.linear_reduce"],
            "solve.univariate_integer_roots_s": s["solve.univariate_integer_roots"],
            "solve.univariate_integer_roots_calls": calls["solve.univariate_integer_roots"],
            "solve.bounded_enumerate_s": s["solve.bounded_enumerate"],
            "solve.bounded_enumerate_calls": calls["solve.bounded_enumerate"],
            "solve.candidates_checked": counts["visited"],
            "solve.box_points": counts["box_points"],
            "solve.enumeration_yield": (
                counts["enum_solutions"] / counts["enum_visited"] if counts["enum_visited"] else 0.0
            ),
            "solve.verify_certificate_s": s["solve.verify_certificate"],
            "solve.verify_certificate_calls": calls["solve.verify_certificate"],
            "cli.main_self_s": own["cli.main"],
        }

    def write_jsonl(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
