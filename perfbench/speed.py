"""Machine-speed samples taken during a pass, used to scale its times.

On a shared host the speed of Python code switches between levels about
1.6x apart within seconds, and its mean drifts by tens of percent over
minutes.  ``SpeedProbe`` runs a fixed pure-Python reference job every
``PERIOD_S`` seconds of wall time from a timer signal.  The handler runs
in the main thread between bytecodes, so samples are also taken in the
middle of long commands; the time spent in it is subtracted from the
commands' times.  A command's time is scaled by ``REF_S`` over the mean
reference time sampled during it, which gives its time at full speed.
The job is the benchmark's own code, so no change to the library moves it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.1
# The job's time at full speed on a 2-vCPU KVM guest (Intel Xeon, Sapphire
# Rapids) under CPython 3.11.
REF_S = 0.0029
_N = 24
_TABLE = [[(i + j) % _N for j in range(_N)] for i in range(_N)]


def reference_job() -> float:
    """Seconds taken to close every pair of elements of Z_24, twice."""
    start = time.perf_counter()
    for _ in range(2):
        for a in range(1, _N):
            for b in range(a, _N):
                seen, frontier = {0}, [0]
                while frontier:
                    fresh = []
                    for x in frontier:
                        for g in (a, b):
                            y = _TABLE[x][g]
                            if y not in seen:
                                seen.add(y)
                                fresh.append(y)
                    frontier = fresh
    return time.perf_counter() - start


class SpeedProbe:
    """Reference-job samples as (start time, seconds), taken every
    ``PERIOD_S`` while the probe is entered and whenever ``sample`` is
    called."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.busy = 0.0  # seconds spent in the timer handler

    def sample(self) -> float:
        start = time.perf_counter()
        took = reference_job()
        self.samples.append((start, took))
        return took

    def _tick(self, signum, frame):
        self.busy += self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean reference time sampled within one period of
        the interval [start, end] (the nearest sample if there is none)."""
        near = [d for t, d in self.samples if start - PERIOD_S <= t <= end + PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return REF_S * len(near) / sum(near)
