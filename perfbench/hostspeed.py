"""Correction of timings for the speed of a shared host.

The benchmark's host shares its cores with other load.  Its speed swings by
up to about 2x, in phases that last from about a second to several minutes,
so raw timings of one program differ by that much from run to run.  While a
worker measures, a ``SpeedMeter`` therefore times a fixed kernel of
standard-library ``Fraction`` arithmetic, which runs no quasinv code, when it
starts, when it stops, and every ``SAMPLE_EVERY_S`` seconds in between from a
timer signal, so also in the middle of a long operation.  A timing is scaled
by ``REFERENCE_S`` over the mean kernel time around it.  The result reads in
seconds at the reference speed, the speed at which the kernel takes
``REFERENCE_S``: about that of the host when it is quiet.

The meter's clock leaves out the time spent in the kernel, so the kernel
adds nothing to any timing taken with it.  A change to quasinv cannot change
the kernel, so it moves a corrected timing as it moves the raw one.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0052
SAMPLE_EVERY_S = 0.25


def kernel() -> int:
    total = 0
    for i in range(1, 1200):
        x = (Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2)
             + Fraction(1, i))
        total += x.numerator % 7
    return total


class SpeedMeter:
    """Kernel samples taken while a worker measures, and the clock that
    excludes them.  Use from the main thread: it owns ``SIGALRM``."""

    def __init__(self):
        self.spent = 0.0     # seconds spent in the kernel so far
        self.times: list[float] = []     # clock() at each sample
        self.samples: list[float] = []   # kernel seconds of each sample
        self._previous_handler = None

    def clock(self) -> float:
        """Seconds, excluding the time spent in the kernel."""
        return time.perf_counter() - self.spent

    def _sample(self, *_signal_args) -> None:
        at = self.clock()
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.spent += elapsed
        self.times.append(at)
        self.samples.append(elapsed)

    def __enter__(self) -> SpeedMeter:
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def corrected(self, start: float, end: float) -> float:
        """``end - start`` (clock readings) at the reference speed: scaled by
        the mean of the samples taken inside the interval and of the nearest
        sample on each side of it."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        around = self.samples[lo:hi]
        return (end - start) * REFERENCE_S * len(around) / sum(around)
