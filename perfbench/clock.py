"""
Op times scaled to a reference machine speed.

The benchmark runs on shared machines whose speed drifts by 20 % and more,
within seconds and across minutes, which swamps the differences the
benchmark is meant to show.  While it runs, ``Clock`` interrupts the
process every ``PERIOD_S`` seconds with a timer signal whose handler
times a small fixed stdlib computation of the same kind as exform's work
(frozensets of strings and exact fractions).  An interval's time, less
the handler's time (``stolen``), is scaled by the computation's nominal
time over its mean time in the samples taken during the interval and
``WINDOW_NS`` either side of it.  On a shared 2-core sandbox this cut the
quartile spread of one exit-race op repeated for 100 s from 22 % to 4.5 %.
"""

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_NS = 400_000    # its median time in samples on a shared 2-core sandbox
PERIOD_S = 0.025
WINDOW_NS = 250_000_000


def reference():
    sets = [frozenset(f"w{i % 16}:{j}" for j in range(i % 7 + 1)) for i in range(60)]
    total, seen = Fraction(0), set()
    for k, a in enumerate(sets):
        c = (a & sets[(k * 7) % len(sets)]) | a
        seen.add(c)
        total += Fraction(len(c), k + 1)
    return len(seen), total


class Clock:
    def __init__(self):
        self.times = []      # end of each sample, perf_counter_ns
        self.costs = []      # the reference computation's time in it, ns
        self.stolen = 0      # ns spent in the handler so far
        self._previous = None

    def _sample(self, signum, frame):
        # the collector stays off so that the size of exform's heap does
        # not change the reference computation's time
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        reference()
        end = perf_counter_ns()
        if enabled:
            gc.enable()
        self.times.append(end)
        self.costs.append(end - start)
        self.stolen += perf_counter_ns() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, begin, end):
        """Nominal over measured reference time around an interval."""
        lo = bisect.bisect_left(self.times, begin - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end + WINDOW_NS)
        around = self.costs[lo:hi] or self.costs
        return REFERENCE_NS * len(around) / sum(around) if around else 1.0
