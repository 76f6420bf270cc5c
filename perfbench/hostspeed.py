"""Request times normalized by the host's momentary speed.

On a shared host the CPU speed a single thread gets swings by about 25 %
within a fraction of a second (a fixed loop timed back to back: lag-one
autocorrelation 0.9 at 3 ms, below 0.2 at 0.6 s), so raw request times of
two runs of the same requests differ by up to a third.  A fixed reference
kernel (stdlib only, so no change to the program moves it) is timed at every
request boundary and, from a CPU-time timer, every SAMPLE_PERIOD_S inside a
request.  A sample's speed is NOMINAL_S over the kernel's time; a request's
normalized time is its own time, sampling excluded, times the mean speed of
the samples taken during and around it: seconds on a host where the kernel
takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: reference kernel time on the nominal host (a 2-core shared x86-64 VM, CPython 3.11)
NOMINAL_S = 0.0025
#: CPU seconds between speed samples inside a request
SAMPLE_PERIOD_S = 0.05


def reference():
    """The fixed kernel: rational arithmetic and dict updates, as in the program's cyclo layer."""
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 17 - 8, i % 13 + 1) * Fraction(3, i + 2)
        table[i % 97] = table.get(i % 97, 0) + i * i
    return acc, table


class Speedometer:
    def __init__(self):
        self.speeds = []  # speeds sampled in the current measurement
        self.spent = 0.0  # seconds spent sampling since the measurement started
        self.last = None  # speed sampled at the end of the previous measurement

    def sample(self):
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        self.spent += took
        self.speeds.append(NOMINAL_S / took)
        return self.speeds[-1]

    def _on_timer(self, signum, frame):
        self.sample()

    def measure(self, fn, *args):
        """fn(*args), its seconds with sampling excluded, and its normalized seconds."""
        self.speeds = [self.last if self.last is not None else self.sample()]
        previous = signal.signal(signal.SIGPROF, self._on_timer)
        self.spent = 0.0
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            seconds = time.perf_counter() - start - self.spent
        self.last = self.sample()
        return result, seconds, seconds * statistics.fmean(self.speeds)

    def speed(self, samples):
        """Mean speed over a few back-to-back samples (for set-up times)."""
        self.speeds = []
        return statistics.fmean(self.sample() for _ in range(samples))
