"""Wall time expressed at a fixed nominal machine speed.

The speed of a shared machine drifts by tens of percent over seconds, and
that drift is most of the spread between identical runs.  The clock
therefore runs a fixed reference computation (a probe) at every step
boundary and, through an interval timer, every ``PROBE_INTERVAL_S`` while a
step runs.  The time between two probes is divided by the local speed, the
median probe duration around it over ``REF_NOMINAL_S``.  Probe time itself
is left out.  A step that took 1 s while the probes ran 20% slow reports
about 0.83 nominal seconds.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.1
# Median probe duration on the reference machine (see README); it only
# fixes the unit, so a nominal second is a wall second there.
REF_NOMINAL_S = 0.00140

_REF_ARRAY = np.linspace(0.0, 1.0, 1024)


def reference_work() -> float:
    """A fixed mix of interpreted Python and a small numpy kernel, like the workloads."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(9000):
        x = math.sqrt(i + 0.5)
        table[i & 63] = table.get(i & 63, 0.0) + x
        acc += x
    return acc + float(np.convolve(_REF_ARRAY, _REF_ARRAY).sum())


class DriftClock:
    """Probes the machine's speed and converts wall intervals to nominal seconds."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self.on_probe = None  # called with (start, end) after every probe
        self._busy = False
        self._previous_handler = None

    def probe(self) -> int:
        """Run one probe now; return its index in ``probes``."""
        self._busy = True
        try:
            start = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.probes.append((start, end))
            if self.on_probe is not None:
                self.on_probe(start, end)
            return len(self.probes) - 1
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.probe()

    def __enter__(self) -> "DriftClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def timed(self, fn):
        """Call ``fn``; return (result, nominal seconds, wall seconds without probes)."""
        first = self.probe()
        result = fn()
        last = self.probe()
        nominal, wall = self.nominal_seconds(first, last)
        return result, nominal, wall

    def nominal_seconds(self, first: int, last: int) -> tuple[float, float]:
        window = self.probes[first : last + 1]
        durations = [end - start for start, end in window]
        nominal = wall = 0.0
        for j in range(len(window) - 1):
            gap = window[j + 1][0] - window[j][1]
            local = statistics.median(durations[max(0, j - 1) : j + 3])
            nominal += gap * REF_NOMINAL_S / local
            wall += gap
        return nominal, wall

    def speed_now(self, count: int = 5) -> float:
        """Median probe duration over ``count`` fresh probes, as a share of nominal."""
        first = len(self.probes)
        for _ in range(count):
            self.probe()
        durations = [end - start for start, end in self.probes[first:]]
        return statistics.median(durations) / REF_NOMINAL_S
