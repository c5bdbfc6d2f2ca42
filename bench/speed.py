"""Times scaled to a fixed reference speed of the machine.

The machine the benchmark runs on can change speed by 2x within a second
(other guests share its cores).  A ``SpeedClock`` takes short speed probes
(a fixed piece of Fraction arithmetic that uses nothing from the package)
and scales each measured interval by the speed seen around it: the time
between two probes counts at the mean of their speeds, relative to the
probe time ``REF_PROBE_S`` of the reference machine.  A change to the
package moves the measured work but not the probe, so it shows in full.

While armed, the clock probes from a SIGALRM interval timer every
``PERIOD_S``, so that the speed is known inside long ops too; ``tick()``
probes on demand, taking the median of three probes.  Probe time is left
out of every interval, scaled or not.  Do not arm the clock while a child
process does the measured work: the probe would take the CPU from the
child, and time the two sharing it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# time of one probe on the reference machine (2-vCPU Xeon, Python 3.11.7)
REF_PROBE_S = 0.0018
PERIOD_S = 0.05


def probe() -> tuple[float, float]:
    """(start, end) of one fixed piece of interpreter work.

    The probe makes no cycles; with the collector off, its time does not
    depend on how large the workload's heap is.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        return t0, time.perf_counter()
    finally:
        if was_enabled:
            gc.enable()


class SpeedClock:
    def __init__(self):
        # probe windows, in time order, and the probe time each measured
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probe_s: list[float] = []
        self._probing = False
        self._old_handler = None

    def tick(self, repeats: int = 3) -> None:
        """Probe ``repeats`` times and record the median probe time."""
        if self._probing:  # a timer signal that lands inside a probe
            return
        self._probing = True
        try:
            windows = [probe() for _ in range(repeats)]
            self.starts.append(windows[0][0])
            self.ends.append(windows[-1][1])
            self.probe_s.append(statistics.median(e - s for s, e in windows))
        finally:
            self._probing = False

    def arm(self) -> None:
        """Probe once every PERIOD_S until disarmed."""
        self._old_handler = signal.signal(signal.SIGALRM, lambda *_: self.tick(1))
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def disarm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def busy(self, a: float, b: float) -> float:
        """Seconds in [a, b] outside the probes."""
        return self._integrate(a, b, scaled=False)

    def scaled(self, a: float, b: float) -> float:
        """Seconds in [a, b] outside the probes, at the reference speed."""
        return self._integrate(a, b, scaled=True)

    def _integrate(self, a: float, b: float, scaled: bool) -> float:
        # probes are disjoint and in time order; the gap before probe i runs
        # at the mean speed of probes i-1 and i, the ends at their nearest
        n = len(self.starts)
        if scaled and n == 0:
            raise ValueError("no speed probe taken")
        lo = max(bisect_right(self.ends, a) - 1, 0)
        hi = min(bisect_left(self.starts, b) + 1, n)
        total, cur = 0.0, a
        for i in range(lo, hi + 1):
            gap_end = min(self.starts[i], b) if i < n else b
            if gap_end > cur:
                weight = 1.0
                if scaled:
                    p = self.probe_s[min(i, n - 1)]
                    if 0 < i < n:
                        p = (p + self.probe_s[i - 1]) / 2
                    weight = REF_PROBE_S / p
                total += (gap_end - cur) * weight
            if i < n:
                cur = max(cur, min(self.ends[i], b))
        return total
