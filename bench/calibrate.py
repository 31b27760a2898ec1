"""Machine-speed reference for the benchmark's end-to-end times.

The benchmark runs on shared virtual machines whose CPU speed drifts by a
third or more over minutes and swings within seconds, the same for every
pure-Python workload.  Each run therefore also times a fixed reference
computation at short intervals throughout, and reports its times scaled to
the speed at which the reference takes ``REF_MS``:

    reported = measured * REF_MS / (median reference time in this run)

The reference uses only the standard library and no ``wanas`` code, so a
change to the package cannot change it; it does the kind of work the
package does (``Fraction`` arithmetic on multi-digit integers, dicts keyed
by exponent tuples, sorting).  Raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter
from typing import Iterator

# About the median reference time in a worker on the 2-CPU VM where the
# benchmark was built, so that there the scaled times stay close to raw ones.
REF_MS = 11.0

_RNG = random.Random(20031205)
_VALUES = [Fraction(_RNG.randint(-10**6, 10**6), _RNG.randint(1, 10**6)) for _ in range(32)]
_KEYS = [tuple(_RNG.randint(0, 3) for _ in range(4)) for _ in range(32)]


def reference() -> Fraction:
    """Fixed work: a polynomial-like product of two 32-term sparse sums."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for ka, a in zip(_KEYS, _VALUES):
        for kb, b in zip(_KEYS, _VALUES):
            key = tuple(x + y for x, y in zip(ka, kb))
            acc[key] = acc.get(key, 0) + a * b
    return sum(v for _, v in sorted(acc.items()))


def time_reference() -> float:
    """Seconds one reference computation takes."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def speed_factor(ref_samples: list[float]) -> float:
    """Factor that scales this run's times to the reference speed."""
    return REF_MS / (statistics.median(ref_samples) * 1e3)


@contextmanager
def sampling(interval: float) -> Iterator[list[tuple[float, float]]]:
    """Time the reference every ``interval`` seconds of wall time until the
    block ends, appending its (start, end) to the yielded list.

    A SIGALRM handler runs it on the main thread, interrupting whatever
    runs there: no thread or process is started.
    """
    samples: list[tuple[float, float]] = []

    def handler(signum, frame):
        t0 = perf_counter()
        reference()
        samples.append((t0, perf_counter()))

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
