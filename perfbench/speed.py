"""The machine's speed, read from a fixed reference computation.

On a shared host the same work runs up to half slower for minutes at a time
while neighbours are busy: with each query's fastest of five passes, the
median latency of runs a few minutes apart still differed by up to 80
percent.  The benchmark therefore times a fixed pure-Python computation,
``reference_work``, next to the program and scales every time it reports to
the speed at which the reference takes ``REFERENCE_SECONDS``:

    reported = measured * REFERENCE_SECONDS / reference time at that moment

The reference never changes with the program, so the program's own speed
stays in the figures and most of the machine's cancels out (solver loops
slow down about 1.3 times as much as the reference does).  The unscaled
times are printed next to the metrics.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from array import array
from fractions import Fraction
from typing import Dict, List

# The reference's time on a 2.1 GHz Xeon with CPython 3.11 (the machine of
# the nominal round times) when no neighbour slows it down.
REFERENCE_SECONDS = 0.0014
# The sampler times the reference this often while queries run; a query's
# scale is the median reference time within WINDOW_S of it.
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.5


def reference_work() -> tuple:
    """Fixed pure-Python work of the kinds gammacap does.

    Fraction and big-integer arithmetic, float logarithms, dict and list
    traffic.
    """
    acc = Fraction(0)
    table: Dict[int, int] = {}
    big = 1
    total = 0.0
    rows = []
    for i in range(1, 200):
        acc += Fraction(i, i * i + 1)
        big = big * (131 + i) % (1 << 400)
        table[i & 63] = table.get(i & 63, 0) + big
        total += math.log2(i) * i
        rows.append([total * j for j in range(8)])
    return acc, big, total, len(rows), len(table)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale_now() -> float:
    """The scale for work done right now, from five reference samples."""
    return REFERENCE_SECONDS / statistics.median(reference_seconds() for _ in range(5))


class Sampler:
    """Times the reference every SAMPLE_EVERY_S from a timer signal.

    The handler runs between bytecodes of the main thread, so each sample
    lies wholly inside or wholly outside a query; ``inside`` gives the time
    the samples took within a query, to leave out of its latency.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.seconds = array("d")
        self._previous = None

    def _sample(self, *_: object) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def inside(self, t0: float, t1: float) -> float:
        """Seconds of the samples that started in [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return sum(self.seconds[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_SECONDS over the median reference time around [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_S)
        window: List[float] = list(self.seconds[lo:hi]) or list(self.seconds)
        return REFERENCE_SECONDS / statistics.median(window)
