"""Speed-calibrated timing.

On a shared virtual machine a CPU-bound loop can run at half speed for
seconds at a time while another tenant is busy, and the process's CPU time
slows down with it, so raw timings of the same code drift by up to 2x
between runs.  To report times that compare across runs, a timer signal runs
a short calibration kernel every PERIOD seconds and records how long it
took.  An interval's calibrated length is its busy time (the interval minus
the time spent in the kernel) multiplied by the mean of REFERENCE_S / kernel
time over the samples taken inside it or within MARGIN seconds of it.  The
result is in seconds at the reference speed: the speed at which the kernel
takes REFERENCE_S, about an unloaded core of a 2-core Intel Xeon virtual
machine.  Raw times are kept next to calibrated ones in the run's details.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left
from fractions import Fraction

PERIOD = 0.01
REFERENCE_S = 1.8e-4
# Speed samples this close to an interval count for it too: the speed
# changes faster than one sample can tell, so a short interval takes the
# mean speed of its neighbourhood.
MARGIN = 0.03


def _kernel() -> int:
    """Exact-rational arithmetic and bitmask set operations, the two kinds of
    inner loop the library spends its time in.

    Of the kernels tried (rationals, bitmask integers, tuples in dicts and
    sets, plain interpreter loops, and this mix), the mix tracked the pass
    times of all four workloads most evenly under the same machine load.
    """
    acc = Fraction(0)
    mask = 0
    for i in range(1, 60):
        acc += Fraction(i % 7 - 3, i % 4 + 1)
        mask |= 1 << (i % 61)
        mask ^= mask >> 3
    full = (1 << 80) - 1
    covered = bits = 0
    for i in range(120):
        covered |= (1 << (i % 80)) | (1 << (i * 7 % 80))
        left = full & ~covered
        bits += (left & -left).bit_length() + left.bit_count()
        if i % 40 == 39:
            covered = 0
    return mask.bit_count() + acc.denominator + bits


class SpeedClock:
    """Samples machine speed while active; calibrates intervals afterwards."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self._cum_speed = [0.0]
        self._cum_busy = [0.0]
        self._in_tick = False
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum: int, frame: object) -> None:
        if self._in_tick:
            return
        self._in_tick = True
        start = time.perf_counter()
        _kernel()
        took = time.perf_counter() - start
        self.times.append(start)
        self.kernel_s.append(took)
        self._cum_speed.append(self._cum_speed[-1] + REFERENCE_S / took)
        self._cum_busy.append(self._cum_busy[-1] + took)
        self._in_tick = False

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of [start, end], a perf_counter interval."""
        i = bisect_left(self.times, start)
        j = bisect_left(self.times, end)
        busy = (end - start) - (self._cum_busy[j] - self._cum_busy[i])
        lo = bisect_left(self.times, start - MARGIN)
        hi = bisect_left(self.times, end + MARGIN)
        if hi == lo:
            return busy
        return busy * (self._cum_speed[hi] - self._cum_speed[lo]) / (hi - lo)
