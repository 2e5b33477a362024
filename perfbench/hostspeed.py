"""Operation times at one reference host speed.

The host the benchmark was tuned on (2 vCPUs of a shared Xeon at
2.0 GHz) runs the same code up to 1.8x slower in spells that last from
seconds to many minutes, and CPU time grows with wall time in them, so
neither the fastest of a few passes nor CPU time removes them. A fixed
pure-Python probe tracks the host's speed closely: dividing each query
of `search-n12` by the probe's time next to it cut the spread of block
medians from 130-236 ms to 117-137 ms over a minute and a half.

`HostClock.time` therefore probes the host before each operation and,
through a timer signal, every half second throughout, and scales the
operation's wall time by the reference probe time over the mean probe
time from a second before the operation to its end. The look-back
averages out the probe's own noise on short operations; a spell of
slowness lasts longer than that. The probe runs on thread CPU time, so
that a wait for the GIL, as when the table builder's worker threads
run, does not read as a slow host.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import Callable, List, Tuple

PROBE_LOOPS = 20000
# The probe's thread CPU time on the host above in a fast spell, so that
# there a scaled time equals the wall time.
REFERENCE_PROBE_S = 0.0023
INTERVAL_S = 0.5
LOOKBACK_S = 1.0


def probe() -> float:
    """Thread CPU seconds of a fixed piece of interpreter work."""
    t0 = time.thread_time()
    total, table = 0, {}
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i & 255] = total
    return time.thread_time() - t0


class HostClock:
    """Times calls and scales them to the reference host speed. Use as a
    context manager: it owns SIGALRM while open."""

    def __init__(self):
        self.when: List[float] = []  # perf_counter time of each probe
        self.took: List[float] = []  # its thread CPU seconds
        self.probing_s = 0.0  # wall time spent in probes
        self._previous = None

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self._probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _probe(self) -> None:
        t0 = time.perf_counter()
        self.when.append(t0)
        self.took.append(probe())
        self.probing_s += time.perf_counter() - t0

    def time(self, call: Callable) -> Tuple[object, float, float]:
        """(result, wall seconds, seconds at the reference speed) of
        `call()`; the timer's probes are not counted in either time."""
        self._probe()
        probing = self.probing_s
        t0 = time.perf_counter()
        result = call()
        wall = time.perf_counter() - t0 - (self.probing_s - probing)
        first = bisect.bisect_left(self.when, t0 - LOOKBACK_S)
        speed = statistics.fmean(self.took[first:])
        return result, wall, wall * REFERENCE_PROBE_S / speed
