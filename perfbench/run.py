"""Benchmark of the chiy workbench, standard library only.

Run from the repository root:

    python3 perfbench/run.py --workload generate --seed 1 --seconds 35 --trace 0

Workloads (see README.md): ``generate``, ``classify`` and ``planted``; the
default ``all`` runs each in turn.  The seed changes only ``planted``, whose
systems it generates; ``generate`` and ``classify`` have fixed inputs.

One run repeats whole passes over the workload's ops until the next pass
would overrun ``--seconds``, checks every output outside the timed region,
prints one line per metric and, last, one JSON object.  Times are given at
a reference machine speed (see ``speed.py``); ``wall_pass_s``,
``wall_op_p50_ms`` and ``wall_setup_s`` are the raw figures.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` spends half the time untraced
and half with the layer wrappers of ``tracing.py`` installed, reports the
per-layer numbers of a traced pass and writes the spans to
``.perfbench/<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_RUNS = 5
END_TO_END = ("setup_s", "pass_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")

if not (SRC / "chiy" / "__init__.py").is_file():
    sys.exit(f"perfbench: no chiy package under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import speed  # noqa: E402
import workloads  # noqa: E402  (needs the path set above)
from tracing import Tracer  # noqa: E402

# Interpreter start-up is left out: the clock starts before `import chiy`.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - start
import speed, statistics
print(elapsed, elapsed * speed.REFERENCE_S / statistics.median(speed.calibrate() for _ in range(3)))
"""


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Median time, over fresh interpreters, to import chiy and build the
    workload's inputs: at the reference speed, and as measured."""
    samples = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), name, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append([float(x) for x in child.stdout.split()])
    return statistics.median(s[1] for s in samples), statistics.median(s[0] for s in samples)


def run_passes(workload, budget: float, tracer=None) -> list[dict]:
    """Whole passes over the ops, until the next one would overrun ``budget``
    seconds of measured time; always at least one."""

    def run(op):
        call = functools.partial(workload.run, op)
        try:
            return tracer.op(workload.label(op), call) if tracer else call()
        except Exception as exc:  # a raising op counts as failed
            return exc

    passes = []
    spent = 0.0
    while not passes or spent + passes[-1]["wall_s"] <= budget:
        gc.collect()
        if tracer:
            tracer.reset()
            tracer.install()
        results = speed.run_calibrated(workload.ops, run)
        if tracer:
            tracer.uninstall()
        passes.append(check_pass(workload, results))
        if tracer:  # layer times go to the reference speed with their pass
            factor = passes[-1]["seconds"] / passes[-1]["wall_s"]
            passes[-1]["layers"] = {
                key: value * factor if key.endswith("_s") else value
                for key, value in tracer.pass_metrics().items()
            }
        spent += passes[-1]["wall_s"]
    return passes


def check_pass(workload, results) -> dict:
    failed = decided = 0
    for op, output, _, _ in results:
        try:
            if isinstance(output, Exception):
                problem = f"raised {output!r}"
            else:
                problem = workload.check(op, output)
                decided += workload.verdict(output) in workloads.DECIDED
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            failed += 1
            print(f"FAIL {workload.name} {workload.label(op)}: {problem}", file=sys.stderr)
    # op times in op order, kept compact so that the run's own memory does not
    # grow into peak_rss_mb with the number of passes
    return {
        "wall_s": sum(r[2] for r in results),
        "seconds": sum(r[3] for r in results),
        "walls": array("d", (r[2] for r in results)),
        "times": array("d", (r[3] for r in results)),
        "failed": failed,
        "decided": decided,
    }


def summary(workload, passes) -> dict:
    """Every metric the run can give without tracing, as name -> (value, unit)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    op_times = [t for p in passes for t in p["times"]]
    attempted = len(op_times)
    metrics = {
        "pass_s": (statistics.median(p["seconds"] for p in passes), "s"),
        "wall_pass_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "wall_op_p50_ms": (statistics.median(w for p in passes for w in p["walls"]) * 1000, "ms"),
        "ops_per_s": (attempted / sum(p["seconds"] for p in passes), "1/s"),
        "op_p50_ms": (statistics.median(op_times) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_ratio": (sum(p["failed"] for p in passes) / attempted, "ratio"),
        "decided_ratio": (sum(p["decided"] for p in passes) / attempted, "ratio"),
    }
    if attempted >= 1000:  # at least ten samples beyond the 99th percentile
        metrics["op_p99_ms"] = (statistics.quantiles(op_times, n=100)[98] * 1000, "ms")
    index = {workload.label(op): i for i, op in enumerate(workload.ops)}
    for name, (labels, scale, unit) in workload.NAMED.items():
        medians = [statistics.median(p["times"][index[label]] for p in passes) for label in labels]
        metrics[name] = (sum(medians) * scale, unit)
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.build(name, seed)
    if traced:
        plain = run_passes(workload, seconds / 2)
        tracer = Tracer()
        passes = run_passes(workload, seconds / 2, tracer)
        tracer.write_jsonl(TRACE_DIR / f"{name}-seed{seed}.jsonl")
        layers = {
            key: (statistics.median(p["layers"][key] for p in passes), unit_of(key))
            for key in passes[0]["layers"]
        }
        overhead = statistics.median(p["seconds"] for p in passes) - statistics.median(
            p["seconds"] for p in plain
        )
        layers["trace.overhead_s"] = (overhead, "s")
        shown, reported = layers, layers
        passes = plain + passes
    else:
        passes = run_passes(workload, seconds)
        shown = summary(workload, passes)
        setup, wall_setup = measure_setup(name, seed)
        shown["setup_s"] = (setup, "s")
        shown["wall_setup_s"] = (wall_setup, "s")
        reported = {key: shown[key] for key in END_TO_END}
    print(f"# {name}: seed {seed}, {len(passes)} passes of {len(workload.ops)} ops")
    for key, (value, unit) in shown.items():
        print(f"{key:<40} {value:.6g} {unit}")
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in reported.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
