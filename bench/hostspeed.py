"""Host-speed probe: scales measured wall times to a fixed reference speed.

The benchmark runs on shared machines whose CPU speed swings while it runs:
on the 2-core x86 KVM guest it was written on (Intel Xeon, 2.1 GHz), the
4-second medians of a fixed pure-Python loop moved between 11.8 and 22.9 ms
within two minutes, in phases lasting 20-40 s. Timing more work per run does
not average that out. A short fixed probe, run in the same process on the
same (pinned) CPU between timed items, slows down with the host; a wall time
multiplied by ``REF_S / probe`` is the time the work would have taken at the
reference speed. Over three minutes of such swings, scaling cut the spread
of 10-second medians of an S21 fit from 18% to 9%, of a level-2 field solve
from 15% to 5% and of a fresh ``import cpwloss`` from 16% to 7%. It helps
little on the memory-bound level-4 solve (12% to 9% from one solve to the
next).

The probe uses only the interpreter and numpy, never the program under
test, so no change to the program can move it. Raw times stay in each
run's detail record.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median probe time at this module's reference speed: the quiet speed of the
# machine named above. Scaled times are seconds at that speed.
REF_S = 0.8e-3
_REPEATS = 7
_EVERY_S = 0.25  # least time between probe points taken between items
_ARRAY = np.random.default_rng(0).random(32768)


def _kernel():
    s = 0
    for i in range(12000):
        s += i * i
    a = _ARRAY.copy()
    a.sort()
    return s + a[0]


class HostClock:
    """Probe points taken between timed items, and work times scaled by them.

    ``probe`` takes a point; ``tick`` takes one between items once
    ``_EVERY_S`` has passed since the last. A stretch of work between two
    points is scaled by the mean of those two points; time spent probing is
    excluded.
    """

    def __init__(self):
        self.points = []  # (start, end, median probe seconds)

    def probe(self):
        start = time.perf_counter()
        runs = []
        for _ in range(_REPEATS):
            t0 = time.perf_counter()
            _kernel()
            runs.append(time.perf_counter() - t0)
        self.points.append((start, time.perf_counter(), statistics.median(runs)))

    def tick(self):
        if time.perf_counter() - self.points[-1][1] >= _EVERY_S:
            self.probe()

    def scaled(self, t0, t1):
        """Work time in [t0, t1] at the reference speed.

        Needs a probe point that ended at or before ``t0`` and one that
        starts at or after ``t1``.
        """
        ends = [p[1] for p in self.points]
        k = bisect.bisect_right(ends, t0) - 1
        if k < 0 or self.points[-1][0] < t1:
            raise ValueError("interval not bracketed by probe points")
        total, seg = 0.0, t0
        while True:
            before, after = self.points[k], self.points[k + 1]
            ref = REF_S / (0.5 * (before[2] + after[2]))
            if after[0] >= t1:
                return total + (t1 - seg) * ref
            total += (after[0] - seg) * ref
            seg, k = after[1], k + 1

    def mean_scale(self):
        """Mean of REF_S / probe over all points (for the detail record)."""
        return statistics.mean(REF_S / p[2] for p in self.points)
