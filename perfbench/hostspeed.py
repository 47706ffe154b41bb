"""Host speed, sampled while a run is measured, to report times at nominal speed.

The host is shared, and the speed at which it runs the same code drifts by up
to 1.5x within seconds. A fixed kernel timed 900 times over 80 s on two cores
gave 5-second means from 0.078 to 0.119 s, and 30-second means still 10%
apart. Raw wall times of a one-minute run therefore spread across seeds by
more than the bounds of BENCHMARK.json, whatever the run measures.

While a run is measured, a timer signal runs a fixed reference kernel in the
main thread ten times a second. ``Speed.seconds`` turns a measured interval
into seconds at nominal speed: the interval less the sampler's own time
inside it, times NOMINAL_S over the median reference time sampled within
WINDOW_S of it. The kernel is benchmark code, so a change to the library
cannot move it: a tick that gets 20% slower still reads 20% slower. With no
samples, as in the traced run, which does not sample, an interval is
returned as measured.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 1.0e-3      # the reference kernel at this host's typical speed
PERIOD_S = 0.1          # sampling period
WINDOW_S = 1.0          # samples this close to an interval set its speed

_A = np.random.default_rng(0).random((120, 120))
_B = np.random.default_rng(1).random(100_000)


def reference() -> float:
    """Seconds taken by a fixed kernel mixing the library's three kinds of work.

    A Python loop, a small matrix product and an elementwise pass over 0.8 MB.
    A pure-Python kernel alone tracked the harvest trials well but added noise
    to numpy-heavy ticks; a numpy kernel alone did the reverse.
    """
    t0 = time.perf_counter()
    x = 0
    for k in range(5000):
        x += k * k % 7
    _A @ _A
    (_B * 1.5 + 2.0).sum()
    return time.perf_counter() - t0


class Speed:
    def __init__(self):
        self.t: list[float] = []        # sample start times, increasing
        self.ref: list[float] = []      # reference kernel seconds
        self._own = 0.0                 # total wall time spent sampling

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ref.append(reference())
        self.t.append(t0)
        self._own += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample the host speed for the duration of the block."""
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)

    @contextmanager
    def paused(self):
        """Stop sampling while another process is timed."""
        delay, period = signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            if period:
                signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def mark(self) -> tuple:
        """(clock, sampler time so far), read with the sampler held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGALRM])
        try:
            return time.perf_counter(), self._own
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, [signal.SIGALRM])

    @staticmethod
    def raw(start: tuple, end: tuple) -> float:
        """Measured seconds between two marks, less the sampler's own time."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def factor(self, start: tuple, end: tuple) -> float:
        """NOMINAL_S over the median reference time near the interval."""
        if not self.t:
            return 1.0
        lo = bisect.bisect_left(self.t, start[0] - WINDOW_S)
        hi = bisect.bisect_right(self.t, end[0] + WINDOW_S)
        if lo == hi:                      # none near: the next one, or the last
            lo = min(lo, len(self.t) - 1)
            hi = lo + 1
        return NOMINAL_S / statistics.median(self.ref[lo:hi])

    def seconds(self, start: tuple, end: tuple) -> float:
        """Seconds between two marks at nominal host speed."""
        return self.raw(start, end) * self.factor(start, end)
