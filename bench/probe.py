"""Machine-speed probe for timings taken on a shared, noisy machine.

Other tenants of the machine slow this process down in phases that flip
within a fraction of a second and, taken together, can make the same
5-second pass 1.6x slower for a minute at a time.  Neither a median nor a
minimum over passes removes that.  While a ``Probe`` is active, a timer
signal runs a fixed tiny loop every PROBE_PERIOD_S in this process and
records how long it took, so the probe samples the machine's speed at the
same moments as the work being timed.  ``slowdown()`` is the mean probe
time over PROBE_REF_S, and dividing a wall time by it gives the time the
work would take with the probe at its reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_PERIOD_S = 0.02
PROBE_LOOP = 400
# mean probe time on an undisturbed 2-core Xeon with Python 3.11.7
PROBE_REF_S = 21e-6
# A sample this many times the median was descheduled, not slowed: the
# work it would correct lost the same wall time, so it is capped here.
PROBE_CAP = 3.0


class Probe:
    """Context manager that samples the probe loop from SIGALRM while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        s = 0
        for j in range(PROBE_LOOP):
            s += j * j
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean capped probe time over its reference; 1.0 when nothing was sampled."""
        if not self.samples:
            return 1.0
        cap = PROBE_CAP * statistics.median(self.samples)
        return statistics.fmean(min(s, cap) for s in self.samples) / PROBE_REF_S
