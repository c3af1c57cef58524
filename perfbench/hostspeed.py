"""Host speed, sampled while the benchmark runs, to normalize host times.

On a shared VM the same anneal chain's wall time drifted by up to 2x within
minutes.
So while a run measures, a SIGALRM interval timer runs a short fixed
pure-Python loop (`reference_work`) every INTERVAL_S seconds in the main
thread; no thread or process is started. A timed interval then has:

- raw host seconds: its wall time minus the time spent in samples;
- normalized seconds: raw seconds x NOMINAL_S / the mean sample time around
  it, i.e. its time on a host that runs the loop in NOMINAL_S.

The loop never calls harflow, so no harflow change can move it. In probes
that repeated one fixed anneal chain 24-67 times, the interquartile range of
its time over the median was 0.21-0.34 raw. Normalized by samples inside
the chain it was 0.08-0.16 for integer arithmetic, 0.06-0.11 for dict
updates and 0.08-0.15 for both; this loop does both. Random reads over a
large list and small-object allocation did worse, and so did timing the
loop only before and after the chain (0.16).
"""

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.25
NOMINAL_S = 0.0025  # reference_work() time on the nominal host (a 2-vCPU VM)

_KEYS = [(i % 997, i & 7) for i in range(10_000)]
_counts = {}


def reference_work():
    """Allocates no container, so it never triggers (or pays for) a garbage
    collection of the objects the program has made."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for key in _KEYS:
        _counts[key] = _counts.get(key, 0) + 1
    return total


class HostSpeed:
    """Samples reference_work() between start() and stop()."""

    def __init__(self):
        self.starts, self.durations = [], []
        self._previous = None

    def sample(self, *_):
        """Time reference_work() once; also the SIGALRM handler."""
        t0 = perf_counter()
        reference_work()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self):
        """Sample every INTERVAL_S seconds until stop()."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def raw(self, t0, t1):
        """Host seconds of [t0, t1], less the samples taken inside it."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return t1 - t0 - sum(self.durations[lo:hi])

    def factor(self, t0, t1):
        """NOMINAL_S over the mean sample time in [t0, t1], widened by one
        interval on each side so that short intervals have samples too."""
        lo = bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect_left(self.starts, t1 + INTERVAL_S)
        near = self.durations[lo:hi] or self.durations
        return NOMINAL_S / statistics.mean(near)

    def speed(self):
        """Host speed over the whole run, as a share of the nominal host's."""
        return NOMINAL_S / statistics.median(self.durations)
