"""The CPU speed a run saw, sampled while it runs.

On a shared host the benchmark's core runs at about half speed for seconds
to minutes at a time while other tenants load it; process CPU time slows
with it, so neither wall nor CPU time tells a slower program from a busier
host.  A Probe times a fixed reference kernel from a SIGALRM handler every
PERIOD seconds, in the benchmark's own thread, so each sample sees the speed
the program sees at that moment.  A timed interval is then scaled by the
mean of REFERENCE_S / sample over the samples taken inside it: the result
reads as the time the same work takes on a core where one kernel takes
REFERENCE_S.  A change to the program moves the scaled time as much as the
wall time; a change in the host's load does not.

The handler runs between two bytecodes of the program and touches no state
of it, so the program's outputs stay the same.  It adds one kernel per
PERIOD, 1 to 2% of every interval, scaled or not.
"""

from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD = 0.025        # seconds between two samples
REFERENCE_S = 2.5e-4  # one kernel on an idle core of a 2.1 GHz Xeon

_A = np.eye(10) * 10.0 + np.ones((10, 10))
_B = np.linspace(-1.0, 1.0, 10)


def kernel() -> float:
    """Fixed work in the program's mix of interpreter steps and small
    dense linear algebra."""
    s = 0.0
    x = _B.copy()
    for i in range(25):
        x = np.linalg.solve(_A, x) + 0.1 * _B
        s += float(x @ x) * 1e-3 + (i % 7) * 0.5
    return s


class Probe:
    """Samples (start, duration) of the kernel, in perf_counter seconds."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.durations.append(perf_counter() - t0)
        self.starts.append(t0)

    @contextmanager
    def running(self):
        """Sample every PERIOD seconds; restore the old handler on exit."""
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / duration over the samples taken in
        [start, end]; the nearest sample when none was."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        if i == j:
            if not self.starts:
                raise ValueError("no speed sample was taken")
            i = min(i, len(self.starts) - 1)
            j = i + 1
        return float(np.mean(REFERENCE_S / np.asarray(self.durations[i:j])))
