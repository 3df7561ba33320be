"""The speed probe: how fast this machine runs Python right now.

On a shared virtual machine the speed of interpreted code can wander by
10-35%, in wall time and in CPU time alike, over phases from under a
second to minutes.  Raw times then spread more between runs of the same
code than the changes the benchmark must judge.

So the run interleaves a fixed reference kernel with the program: an
interval timer interrupts the single benchmark thread every ``PERIOD_S``
and runs the kernel once in the signal handler, in the same thread on the
same core.  A query's latency is its wall time minus the kernel time
spent inside it, scaled by ``NOMINAL_S / k``, where ``k`` is the median
kernel time of the probes within ``WINDOW_S`` of the query.  The times
the benchmark reports are therefore the times the query would take on
this machine when one kernel takes ``NOMINAL_S``.

The kernel touches nothing of the program.  Garbage collection is off
while it runs, so the program's heap never makes it slower.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
WINDOW_S = 0.1
MIN_PROBES = 5
# kernel seconds at the reference speed: the median of ``kernel()`` on a
# 2-vCPU Intel Xeon VM with CPython 3.11.7
NOMINAL_S = 1.6e-3
_POLY = (1, 2, 3, 4, 5)


def kernel() -> None:
    """A fixed mix of what the program's inner loops do: rational
    arithmetic through Python-level methods, dict stores under tuple keys
    and small integer polynomial products."""
    total = Fraction(0)
    table = {}
    for i in range(1, 160):
        total += Fraction(i % 97, i)
        table[(i, i + 1)] = (i * 31) % 101
        prod = [0] * 9
        for a, x in enumerate(_POLY):
            for b, y in enumerate(_POLY):
                prod[a + b] += x * y


def timed_kernel() -> float:
    """One kernel run with the collector off; its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(count: int = 15) -> float:
    """``NOMINAL_S`` over the median of ``count`` kernels run now."""
    return NOMINAL_S / statistics.median(timed_kernel() for _ in range(count))


class Probe:
    """Runs the kernel every ``PERIOD_S`` from a ``SIGALRM`` timer and keeps
    (start, seconds) of each run."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, *_):
        start = time.perf_counter()
        took = timed_kernel()
        self.starts.append(start)
        self.times.append(took)

    def __enter__(self):
        for _ in range(MIN_PROBES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(MIN_PROBES):
            self._sample()
        return False

    def mark(self) -> int:
        """A position in the probe record, for ``inside``."""
        return len(self.times)

    def inside(self, mark: int, end: float) -> float:
        """Kernel seconds spent after ``mark`` in runs started before ``end``."""
        return sum(took for start, took in zip(self.starts[mark:], self.times[mark:])
                   if start < end)

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the median kernel time of the probes within
        ``WINDOW_S`` of [start, end], or of the ``MIN_PROBES`` nearest to
        it when fewer fall there."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - MIN_PROBES // 2, len(self.starts) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return NOMINAL_S / statistics.median(self.times[lo:hi])
