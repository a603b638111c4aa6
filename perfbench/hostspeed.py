"""Host-speed normalisation of wall times.

On a shared host the CPU speed available to one process changes by up to
about 1.8x over periods of one to tens of seconds.  A fixed pure-Python
kernel, timed between items, tracks that speed: measured over 50 s in 2.5 s
windows, the coefficient of variation of an sl6 `general` run fell from 16%
raw to 4% when divided by the kernel's time, and that of a D7 Lie query from
16% to 6%.

`HostSpeed` samples the kernel at most every INTERVAL_S between timed
regions.  `normalise` rescales a timed interval to the speed at which the
kernel takes REF_KERNEL_MS, using the mean of the last sample before the
interval and the first one after it.  The kernel is benchmark code and is
never timed as part of an item.
"""

from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

REF_KERNEL_MS = 0.22  # the kernel on an unloaded 2-vCPU host, Python 3.11
INTERVAL_S = 0.05
REPEATS = 3


def _kernel() -> Fraction:
    """Fractions, tuples and a dict, the library's own staples.  Tried
    against an sl6 `general` run and a D7 Lie query over 50 s, it tracked
    both better than pure integer arithmetic or a large-memory walk did."""
    acc = Fraction(0)
    table = {}
    for i in range(60):
        table[(i, i & 7)] = Fraction(i, 7)
        acc += table[(i, i & 7)]
    return acc


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample
        self.kernel_ms: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < INTERVAL_S:
            return
        runs = []
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                _kernel()
                runs.append((time.perf_counter() - t0) * 1000)
        finally:
            if gc_was_on:
                gc.enable()
        self.times.append(time.perf_counter())
        self.kernel_ms.append(sorted(runs)[REPEATS // 2])

    def normalise(self, start: float, end: float) -> float:
        """(end - start) in ms, rescaled to the reference speed."""
        i = bisect.bisect_right(self.times, start) - 1
        j = bisect.bisect_left(self.times, end)
        around = [self.kernel_ms[k] for k in (i, j) if 0 <= k < len(self.times)]
        local = sum(around) / len(around)
        return (end - start) * 1000 * REF_KERNEL_MS / local
