"""Sampled machine speed, so that timings are given at one reference speed.

On the reference machine, a 2-core KVM guest on an Intel Xeon (model 207),
the CPU switches between a fast and a slow speed, about 1.35x apart, every
few seconds, for reasons outside the guest (process CPU time slows down with
wall time, so it is not descheduling).  Raw wall times of the same operation
on the same input then spread by 15 to 30 % from run to run.  To remove
that, every timed process runs a fixed Python loop from a timer signal every
``INTERVAL_S`` seconds and records how long the loop took.  A time is
divided by the speed factor around it: the trimmed mean loop time over the
interval, divided by ``REFERENCE_NS``.  A timing so scaled reads as the
seconds the same work takes at the reference speed; the raw seconds are
printed beside it.

The loop costs about 0.25 % of the sampled process's time.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

INTERVAL_S = 0.004
LOOP = range(400)
# Loop time at the fast speed of the reference machine (a 2-core KVM guest,
# Intel Xeon model 207, Python 3.11).
REFERENCE_NS = 6500.0
MIN_SAMPLES = 32  # an interval holding fewer is widened around its middle
TRIM = 0.9  # share of the fastest samples kept; the rest were interrupted


class Sampler:
    """Loop timings taken from SIGALRM; one per process, main thread only."""

    def __init__(self):
        self.at: list[int] = []
        self.ns: list[int] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter_ns()
        for _ in LOOP:
            pass
        self.at.append(t0)
        self.ns.append(perf_counter_ns() - t0)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Speed factor over ``[start_ns, end_ns]``: > 1 means slower than reference."""
        if not self.at:
            self._sample(signal.SIGALRM, None)
        i, j = bisect_left(self.at, start_ns), bisect_right(self.at, end_ns)
        if j - i < MIN_SAMPLES:
            mid = (i + j) // 2
            i = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            j = min(len(self.at), i + MIN_SAMPLES)
        window = sorted(self.ns[i:j])[: max(1, int((j - i) * TRIM))]
        return sum(window) / len(window) / REFERENCE_NS
