"""Timing corrected for the speed changes of a shared machine.

On a shared host one core's speed changes by up to ~1.5x for tens of
seconds at a time, as other tenants load the machine.  No run of this
benchmark outlasts those phases, so raw wall times of identical runs spread
by 17-35% (quartile distance over median) on the reference machine.  The corrected times divide that
out.  While a pass runs, a SIGALRM handler times a fixed calibration loop
(``spin``) ten times a second on the same thread, and each timed interval
is scaled by ``SPIN_REF_S`` over the loop's median duration around it.  A
corrected time reads as seconds on an uncontended core of the machine
``SPIN_REF_S`` was measured on.  The loop is not tlh code, so a change to
the program moves corrected time as it moves raw time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# About the fastest steady duration of spin() on the reference machine
# (Intel Xeon at 2.1 GHz, Python 3.11.7).  It only fixes the unit: corrected
# times of two versions of the program compare the same way whatever it is.
SPIN_REF_S = 0.00024
PERIOD_S = 0.1  # one sample per period while a pass runs
WINDOW_S = 1.0  # a speed estimate is the median of samples this close


def spin() -> float:
    """Seconds one fixed loop takes now.

    The loop multiplies two 30-term sparse maps with tuple keys: the shape
    of the engine's hot loop, though not its code.  In trials on the
    reference machine a plain integer loop left 7-18% spread on fulltwist
    and verify, against 4-6% for this one.  Collection is off while it
    runs, so sampling never triggers the program's garbage collector.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out: dict = {}
        for i in range(30):
            for j in range(30):
                key = (i + j, i & 3, j & 5)
                out[key] = out.get(key, 0) + i * j
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples ``spin`` and converts raw intervals to corrected seconds."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter at the end of each sample
        self.took: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        took = spin()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def probe(self, count: int = 25) -> float:
        """Sample ``count`` times now; return the speed factor at this moment."""
        for _ in range(count):
            self.sample()
        return SPIN_REF_S / statistics.median(self.took[-count:])

    def start(self) -> None:
        self.probe(5)  # so even a pass shorter than PERIOD_S has samples
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe(5)

    def factor(self, t: float) -> float:
        """SPIN_REF_S over the median sample within WINDOW_S of time t."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if lo == hi:  # no sample that close: use the nearest one
            i = bisect.bisect_left(self.at, t)
            lo, hi = (i - 1, i) if i == len(self.at) else (i, i + 1)
        return SPIN_REF_S / statistics.median(self.took[lo:hi])

    def corrected(self, a: float, b: float) -> float:
        """Corrected seconds of the interval [a, b], minus the sampling in it."""
        lo = bisect.bisect_left(self.at, a)
        hi = bisect.bisect_right(self.at, b)
        sampling = sum(self.took[lo:hi])
        points = self.at[lo:hi] or [(a + b) / 2]
        speed = statistics.fmean(self.factor(t) for t in points)
        return (b - a - sampling) * speed
