"""Machine-speed probe: scales measured times to a reference speed.

The benchmark was defined on a 2-vCPU KVM guest of a shared host whose
effective CPU speed drifts by up to ~1.6x within minutes (neighbour load
and frequency changes; not steal time: CPU time drifts with wall time).
:func:`probe` is a fixed ~10 ms mix of Python bytecode and small numpy calls
like the program's own. During an untraced run it is timed every
``PROBE_INTERVAL_S`` from a ``SIGALRM`` timer, so probes also land inside
long calls, and after every pass. A timed call's time, minus the probes
that ran inside it, is multiplied by ``REFERENCE_S`` over the median of the
probes from one interval before the call to one interval after it. A run on
a momentarily slow host then reads about what it would at the reference
speed; a change to the program moves the scaled times in full, because the
probe runs no program code.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Median probe time on the guest the benchmark was defined on.
REFERENCE_S = 0.0092

#: Seconds between timer probes.
PROBE_INTERVAL_S = 0.5

clock = time.perf_counter_ns


def probe() -> None:
    """The fixed probe loop (about 10 ms)."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        np.argsort(rng.integers(0, 1000, size=2000), kind="stable")
        heap: list[int] = []
        for i in range(300):
            heapq.heappush(heap, (i * 7919) % 1009)
        squares = {i: i * i for i in range(300)}
        heapq.heappop(heap)
        del squares


class Speed:
    """The probes of one run, as ``(start, end)`` clock readings (ns)."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._busy = False
        probe()  # the first call pays one-off numpy set-up
        self.sample()

    def sample(self) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        start = clock()
        probe()
        self.starts.append(start)
        self.ends.append(clock())
        self._busy = False

    @contextmanager
    def sampling(self):
        """Probe every ``PROBE_INTERVAL_S`` until the block exits."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside_ns(self, start: int, end: int) -> int:
        """Probe time spent inside ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi)
                   if self.ends[i] <= end)

    def factor(self, start: int, end: int) -> float:
        """Reference-speed factor for a call timed over ``[start, end]``."""
        window = int(PROBE_INTERVAL_S * 1e9)
        lo = bisect.bisect_left(self.starts, start - window)
        hi = bisect.bisect_right(self.starts, end + window)
        if lo == hi:  # no probe near: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        durations = [self.ends[i] - self.starts[i] for i in range(lo, hi)]
        return REFERENCE_S * 1e9 / statistics.median(durations)

    def scale(self, start: int, end: int) -> tuple[int, float]:
        """A call's time without the probes inside it, raw and scaled."""
        net = end - start - self.inside_ns(start, end)
        return net, net * self.factor(start, end)

    @property
    def median_factor(self) -> float:
        """The run's median factor, for times not tied to one call."""
        return REFERENCE_S * 1e9 / statistics.median(
            e - s for s, e in zip(self.starts, self.ends)
        )
