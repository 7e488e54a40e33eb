"""The machine's speed, sampled during every pass.

On a shared virtual machine the speed available to one process drifts by
tens of percent over seconds to minutes: the same claims pass has taken
from 8.6 s to 16.3 s on one 2-vCPU machine.  No bound of 25 % holds on raw
wall time there.  So every ``INTERVAL`` seconds of a timed pass, a SIGALRM
handler times one run of a fixed reference computation (qsslab's mix of
small numpy arrays and Python calls, but no qsslab code).  The runner
subtracts the handler's time from each op's time and divides the rest by
the median reference time sampled during and around that op; the quotient
moves with qsslab's speed but hardly with the machine's.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.1  # seconds between samples
WINDOW = 0.5  # seconds around an op whose samples set its reference time


def reference_work() -> float:
    """A fixed computation of about a millisecond: 60 two-stage explicit
    steps of a five-state system with dict-held rates."""
    rates = {"a": 1.0, "b": 0.5}
    y = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])

    def f(t, y):
        return np.array([rates["a"] - y[0] * y[1], y[0] - rates["b"] * y[1],
                         y[1] - y[2], y[2] - y[3], y[3] - y[4]])

    for _ in range(60):
        k1 = f(0.0, y)
        k2 = f(0.1, y + 0.05 * k1)
        y = y + 0.1 * k2
        float(np.max(np.abs(k2 - k1)))
    return float(y[0])


class SpeedProbe:
    """Samples ``reference_work`` before and during one pass.

    ``samples`` holds (time, seconds) pairs; ``stolen`` is the time the
    handler took from the code it interrupted, which is also passed to
    ``on_stolen`` (a traced pass leaves it out of the open span's self time).
    """

    def __init__(self, on_stolen=None):
        self.samples = []
        self.stolen = 0.0
        self.on_stolen = on_stolen
        self._previous = None

    def _sample(self, signum=None, frame=None):
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.samples.append((start, end - start))
        stolen = perf_counter() - start
        self.stolen += stolen
        if signum is not None and self.on_stolen is not None:
            self.on_stolen(stolen)

    def __enter__(self):
        self._sample()
        self.stolen = 0.0  # the first sample runs before the pass, not inside it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def reference_s(self, start: float, end: float) -> float:
        """Median reference time over the samples from ``WINDOW`` seconds
        before ``start`` to ``WINDOW`` seconds after ``end``, or over the
        nearest sample when none falls there."""
        near = [s for t, s in self.samples if start - WINDOW <= t <= end + WINDOW]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - start))[1]]
        return statistics.median(near)
