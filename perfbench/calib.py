"""Host speed calibration.

The benchmark host shares its CPUs with other machines, and its speed
drifts by 20-40% over minutes, the same for set-up, exact arithmetic and
floating point.  So every measuring process times a fixed slice of pure
Python rational arithmetic (no rhomax code) between its measured
operations, at most once per INTERVAL_NS, and the end-to-end times are
reported at the speed at which the slice takes NOMINAL_NS:

    time at reference speed = measured time * NOMINAL_NS / mean(slices)

The mean, not the median: the host switches between a fast and a slow
mode, and a measured time integrates its slowness over the time spent
in each, as the mean slice does.

A slice costs under 1% of the measured time.  The raw times are kept in
the summary and the result file.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# mean slice time on a 2-vCPU Intel Xeon VM (Python 3.11)
NOMINAL_NS = 2_800_000
INTERVAL_NS = 250_000_000
SLICE_TERMS = 500


def kernel() -> Fraction:
    """A fixed sum of rationals: growing numerators and denominators, so
    bigint multiplication and gcd, as in rhomax's exact arithmetic."""
    s = Fraction(0)
    for i in range(1, SLICE_TERMS):
        s += Fraction(i * i + 1, 3 * i + 7)
    return s


class Calibrator:
    """Times a slice when INTERVAL_NS has passed since the last one."""

    def __init__(self):
        self.samples: list[int] = []
        self._last = time.perf_counter_ns()

    def maybe(self) -> int | None:
        """Time a slice if it is due; its time in ns, else None."""
        if time.perf_counter_ns() - self._last < INTERVAL_NS:
            return None
        return self.run()

    def run(self) -> int:
        enabled = gc.isenabled()
        gc.disable()  # the slice makes no cycles; keep it off the heap's state
        try:
            t0 = time.perf_counter_ns()
            kernel()
            dt = time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        self._last = time.perf_counter_ns()
        return dt


def factor(samples) -> float:
    """Multiplier from measured times to times at reference speed."""
    return NOMINAL_NS / statistics.mean(samples)
