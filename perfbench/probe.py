"""Host-speed probe for timing on a shared host.

Other tenants of a shared host slow a core in bursts, and at times for
minutes on end; CPU time grows with wall time, so the slowdown is lost
throughput, not descheduling.  On the 2-vCPU Xeon host this benchmark
was built on, one 50 ms power solve took 50 to 100 ms depending on the
moment.

While installed, the probe times a fixed pure-Python kernel every
``INTERVAL`` seconds from a ``SIGALRM`` handler, which runs in the main
thread between bytecodes; it costs about 2% of the time.
``scale(t0, t1)`` is ``REF_S`` over the kernel's mean time in that
interval (widened to hold at least one sample): a duration times its
scale is the duration at the host speed at which the kernel takes
``REF_S``.  Workloads whose ops run in child processes take no samples
in the parent, which would compete with the children and did not track
their speed; each child times the kernel itself at start and at exit
instead.  Set-up samples run in child processes too, and each times the
kernel once its set-up is done.  ``run_scale()``, the ratio over the
whole run, is recorded for reference.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.01
WIDEN = 0.05
REF_S = 245e-6  # kernel time on an uncontended core of the build host
_A = np.linspace(0.0, 1.0, 64)
_S = np.linspace(0.5, 0.7, 64)


def kernel() -> None:
    """A serial max-plus recursion over numpy scalars: interpreter
    dispatch, float boxing and numpy scalar access, as in the solver and
    the queue simulation."""
    q = 0.0
    for i in range(600):
        q = max(q - _S[i & 63], 0.0) + _A[i & 63]


class SpeedProbe:
    """With ``timer`` False the probe takes no samples and every scale is 1."""

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._saved = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.lengths.append(time.perf_counter() - t0)

    def __enter__(self):
        if self.timer:
            self._saved = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)

    def run_scale(self) -> float:
        """Reference time over the median kernel time of the whole run."""
        if not self.lengths:
            return 1.0
        return REF_S / statistics.median(self.lengths)

    def scale(self, t0: float, t1: float) -> float:
        if not self.starts:
            return 1.0
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if hi == lo:
            lo = bisect.bisect_left(self.starts, t0 - WIDEN)
            hi = bisect.bisect_left(self.starts, t1 + WIDEN)
        if hi == lo:  # no sample near: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        window = self.lengths[lo:hi]
        return REF_S / (sum(window) / len(window))
