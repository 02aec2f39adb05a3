"""Machine-speed calibration.

The machines this benchmark runs on share their cores, and their speed
drifts by up to half, within seconds as well as over minutes.  A fixed
calibration loop that does what chiy's kernel does, a sparse product of
``Fraction``-coefficient polynomials held in dicts keyed by exponent tuples,
slows down in step with chiy's own ops.  Timings are therefore reported at
a reference speed: each op's time is scaled by ``REFERENCE_S`` over the
median time of the loop around and during the op.  The loop uses only the
standard library, so no change to chiy can move it, and runs with the
cyclic garbage collector off, so the size of chiy's heap cannot either.
"""

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.015  # about the loop's time on a quiet 2 GHz Xeon core
INTERVAL_S = 0.5  # sampling period; shorter ops share their calibrations

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}


def calibrate() -> float:
    """Seconds taken by one product of two fixed 64-term polynomials."""
    gc.disable()
    try:
        start = perf_counter()
        product = {}
        for (a, b), x in _TERMS.items():
            for (c, d), y in _TERMS.items():
                key = (a + c, b + d)
                product[key] = product.get(key, 0) + x * y
        return perf_counter() - start
    finally:
        gc.enable()


class _Sampler:
    """Timer-signal handler that calibrates in the middle of long ops."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler, taken out of op times

    def __call__(self, *_):
        start = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - start


def run_calibrated(ops, run) -> list[list]:
    """``[op, run(op), seconds, seconds at the reference speed]`` per op.

    The loop runs before the first op, after the last, between ops whenever
    ``INTERVAL_S`` has passed, and every ``INTERVAL_S`` inside an op from a
    timer signal.  A group of ops between two calibrations is scaled by the
    median of those two and of the samples taken inside the group.
    """
    sampler = _Sampler()
    previous = signal.signal(signal.SIGALRM, sampler)
    try:
        results, group = [], 0
        before, since = calibrate(), perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        for i, op in enumerate(ops):
            spent, start = sampler.spent, perf_counter()
            output = run(op)
            seconds = perf_counter() - start - (sampler.spent - spent)
            results.append([op, output, seconds, None])
            group += 1
            if perf_counter() - since >= INTERVAL_S or i == len(ops) - 1:
                signal.setitimer(signal.ITIMER_REAL, 0)
                after = calibrate()
                factor = REFERENCE_S / statistics.median([before, after, *sampler.samples])
                for result in results[-group:]:
                    result[3] = result[2] * factor
                sampler.samples.clear()
                before, since, group = after, perf_counter(), 0
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return results
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
