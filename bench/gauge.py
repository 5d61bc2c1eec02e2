"""A gauge of the machine's speed while a piece of work runs.

On a shared 2-core VM a fixed pure-Python loop runs up to 1.7 times slower
for stretches of seconds to minutes, depending on what other tenants do,
so raw wall times of the same operation differed by 30-40% between runs.
The gauge times a fixed unit of pure-Python work, which uses neither njk
nor sympy, when the work starts, when it ends, and every ``INTERVAL_S``
seconds in between (from ``SIGALRM``, so the work itself is not changed).
The garbage collector is off while the unit runs, so a collection of the
work's heap is not counted as machine slowness.  ``corrected`` removes
the gauge's own time from a wall time and scales the rest by the mean
sample to the speed at which the unit takes ``UNIT_NOMINAL_S``.  The mean,
not the median: part of the slowness is preemption, which makes a few
samples many times longer, and the work loses the same share of its time.
In five-run trials the interquartile spread of the run medians of
operation time fell from 0.43 to 0.04 of the median on dense_theorem1 and
from 0.33 to 0.04 on catalog.  In another five dense_theorem1 runs it was
0.07 raw, 0.03 corrected by the mean and 0.13 corrected by the median.

Uses only the standard library, so it can time njk's import.  Main thread
only, because signal handlers run there.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# About what unit() takes on an uncontended core of a 2.1 GHz x86-64 VM
# with Python 3.11; it only sets the scale of corrected seconds.
UNIT_NOMINAL_S = 0.0006
INTERVAL_S = 0.1


def unit() -> None:
    """A fixed sub-millisecond piece of interpreter work."""
    table, acc = {}, Fraction(0)
    for i in range(1, 200):
        table[(i % 97, i)] = str(i)
        acc += Fraction(i % 13, i)
    sorted(table.items())


class SpeedGauge:
    """Context manager that samples ``unit()`` while its block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        unit()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedGauge":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def slowdown(self) -> float:
        """Mean unit time over the nominal one; above 1 on a slow machine."""
        return sum(self.samples) / len(self.samples) / UNIT_NOMINAL_S

    def corrected(self, wall_s: float) -> float:
        """``wall_s``, measured around the block, without the gauge's own
        time and at nominal speed."""
        return (wall_s - self.spent) / self.slowdown()
