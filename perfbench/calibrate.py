"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same pure-Python work can take
30% longer for tens of seconds at a time, on both the wall and the CPU
clock, and that drift is larger than the differences the benchmark must
resolve.  A ``Clock`` therefore runs a fixed calibration loop (``spin``:
the Fraction, int and container arithmetic that dominates diagalg, but
none of diagalg's code) every ``INTERVAL_S`` between queries, outside
their timed regions.  A time measured at ``t`` is reported multiplied by
``REFERENCE_S / c``, where ``c`` is the median duration of the calibration
samples nearest ``t``: the time the work would take on a machine running
the loop in ``REFERENCE_S``.  A change to diagalg leaves the loop alone, so
it moves the scaled times exactly as it moves the raw ones.
"""

import json
import re
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# The loop's duration on an idle 2-core x86-64 VM under CPython 3.11.
REFERENCE_S = 0.0018
INTERVAL_S = 0.1
NEAREST = 4


def spin():
    acc = Fraction(0)
    x = Fraction(2, 3)
    counts = {}
    v = list(range(64))
    for i in range(300):
        acc += x * i - Fraction(i, 7)
        counts[i % 17] = (counts.get(i % 17, 0) + i * i) % 65521
        v[i % 64] = (v[(i * 7) % 64] * 31 + i) % 1000003
    # the parsing and report formatting that dominate small queries
    text = json.dumps({"rows": [[str(x) for x in v[k:k + 8]] for k in range(0, 64, 8)],
                       "counts": counts}, indent=2)
    return acc, [int(t) for t in re.findall(r"-?\d+", text)]


class Clock:
    def __init__(self):
        self.times = []
        self.durations = []

    def sample(self):
        t0 = perf_counter()
        spin()
        t1 = perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)

    def tick(self):
        """Take a calibration sample when the last one is INTERVAL_S old."""
        if not self.times or perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, t):
        """REFERENCE_S over the median of the samples nearest time t."""
        i = bisect_left(self.times, t)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        near = self.durations[lo:lo + NEAREST]
        return REFERENCE_S / statistics.median(near)

    def overall(self):
        """REFERENCE_S over the median of all samples."""
        return REFERENCE_S / statistics.median(self.durations)
