"""Machine-speed calibration, sampled all through a run.

On a shared machine the speed of a vCPU drifts by up to about 40% over
seconds to minutes, so raw wall times of two runs of the same code taken a
minute apart differ by more than most changes under test.  A Calibrator
times a small fixed pure-Python probe (exact rationals, tuples, a dict and a
sort, written for the benchmark and independent of ncproj) every PERIOD
seconds from a SIGALRM handler.  Every interval the benchmark measures is
then reported in *reference seconds*:

    raw seconds (probe time excluded) * NOMINAL_PROBE_S / mean probe time

where the mean is over the probes taken during the interval, or over the
last ten probes when fewer than three fell inside it.  The mean, not the
median: the probes sample the machine at even intervals, and the program
suffers the slow tail as much as the probe does.  NOMINAL_PROBE_S is
close to the probe's time on the reference machine in a quiet stretch, so a
reference second is a wall second on that machine at that speed.  A change
that makes ncproj do more or slower work moves the reported time as much as
the raw one; only the machine's drift cancels.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD = 0.05
NOMINAL_PROBE_S = 0.00090


def probe():
    acc = {}
    x = Fraction(1, 3)
    for i in range(90):
        x = (x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)) / 2
        w = tuple((i * 7 + k) % 5 for k in range(6))
        acc[w] = acc.get(w, 0) + x
    return len(sorted(acc.items()))


class Calibrator:
    """Context manager: probes the machine every PERIOD seconds while active."""

    def __init__(self):
        self.samples = []      # probe durations in order
        self.excluded = 0.0    # wall time spent in probes and their handler
        self.on_probe = None   # called with each probe's duration, if set
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        spent = perf_counter() - t0
        self.excluded += spent
        if self.on_probe is not None:
            self.on_probe(spent)

    def __enter__(self):
        for _ in range(10):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return perf_counter(), len(self.samples), self.excluded

    def since(self, mark):
        """Reference seconds elapsed since mark, probe time excluded."""
        t0, n0, ex0 = mark
        raw = perf_counter() - t0 - (self.excluded - ex0)
        during = self.samples[n0:]
        speed = statistics.fmean(during if len(during) >= 3 else self.samples[-10:])
        return raw * NOMINAL_PROBE_S / speed

    def speed_factor(self):
        """Median probe time of the run over the nominal one (> 1: slower)."""
        return statistics.median(self.samples) / NOMINAL_PROBE_S
