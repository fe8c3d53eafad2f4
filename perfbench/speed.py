"""Timings at a fixed reference speed of the host.

On a shared host one vCPU runs the same Python code up to 40 % slower for
seconds at a time, and the two vCPUs do so independently of each other.
Nothing in a 15 s run averages out a slow stretch that lasts minutes, so
raw wall times of identical code differ from run to run by more than any
useful regression bound.

``Probe`` times the reference kernel (``kernel.py``) every ``INTERVAL``
seconds from a SIGALRM handler, in the thread that runs the workload, while
the workload runs.  The handler's own time is subtracted from the op it
fell in (``stolen``).  A duration ``d`` measured over ``[t0, t1]`` is then
reported as ``d`` times the mean of ``REFERENCE_S / kernel time`` over the
kernel samples taken in that interval (or the two around it, for an
interval shorter than ``INTERVAL``): the time it would have taken on a host
where the kernel takes exactly ``REFERENCE_S``.  The kernel is the
benchmark's own code, so a slower or faster program still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

from kernel import kernel_time

INTERVAL = 0.05
REFERENCE_S = 1e-3
# Each kernel sample is replaced by the median of this many neighbours,
# so that one disturbed sample does not move the ops around it.
SMOOTH = 5


class Probe:
    def __init__(self):
        self.clock = time.perf_counter
        self.times: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0
        self._speed: list[float] | None = None
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = self.clock()
        self.samples.append(kernel_time(self.clock))
        self.times.append(start)
        self.stolen += self.clock() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        self.finish()

    def finish(self) -> None:
        """Turn the kernel samples into speeds; ``scale`` works after this."""
        half = SMOOTH // 2
        s = self.samples
        self._speed = [
            REFERENCE_S / statistics.median(s[max(0, i - half): i + half + 1]) for i in range(len(s))
        ]

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, start + seconds)
        if hi - lo < 1:
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return seconds * statistics.fmean(self._speed[lo:hi])
