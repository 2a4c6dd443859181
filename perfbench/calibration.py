"""Correction for the drift of a shared machine's speed.

On a shared host the speed of one core drifts by tens of percent, in
episodes of seconds and in trends over minutes, and process CPU time
drifts with wall time.  A plain wall-clock latency therefore measures the
neighbours as much as pflab.  While a run is timed, an interval timer
interrupts the program every PERIOD_S seconds and runs ``kernel``, a fixed
piece of pure-Python work that pflab's code cannot change, and records
how long it took.  A certificate's time is then

    (wall time - time spent in the kernel) * REFERENCE_S / kernel time

with the kernel time taken as the median of the samples around the
certificate: its seconds at the speed the machine had when REFERENCE_S
was measured.  A change to pflab moves the numerator only.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

PERIOD_S = 0.05
# a certificate's speed is the median of the kernel samples taken during
# it, or of this many nearest to its midpoint when it had fewer
MIN_SAMPLES = 15
# kernel time when the machine runs at full speed: the 10th percentile of
# the samples of a sharing-n3 run on a 2-vCPU Intel Xeon container,
# CPython 3.11.7
REFERENCE_S = 0.0008

# The kernel is a plain loop of small-int arithmetic.  Kernels built on
# sets of tuples, dicts, method calls or big ints were tried as well: on
# this kind of host they all slowed by more than pflab did in the same
# episodes, and the loop tracked pflab's slowdown most closely.
KERNEL_STEPS = 8000


def kernel() -> int:
    x = 0
    for i in range(KERNEL_STEPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return x


class Calibrator:
    """Context manager running ``kernel`` on a timer while it is entered.

    ``samples`` holds (start, duration) of every kernel run; ``spent`` is
    the total wall time spent in the handler, which ``clock`` subtracts.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        perf = time.perf_counter
        t0 = perf()
        # a collection triggered by pflab's garbage is not the kernel's cost
        enabled = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            t1 = perf()
            if enabled:
                gc.enable()
            self.samples.append((t0, t1 - t0))
            self.spent += perf() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def clock(self) -> tuple[float, float]:
        """(wall time, handler time so far); two of them bound an interval."""
        return time.perf_counter(), self.spent

    def speed(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median kernel time around [t0, t1]."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in nearest]
        if not inside:
            raise RuntimeError("no calibration samples: the timer never fired")
        return REFERENCE_S / statistics.median(inside)

    def busy(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall seconds between two ``clock`` readings, kernel time excluded."""
        return end[0] - start[0] - (end[1] - start[1])

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds at the reference speed between two ``clock`` readings."""
        return self.busy(start, end) * self.speed(start[0], end[0])
