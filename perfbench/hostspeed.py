"""Host speed, sampled between timed operations with a fixed kernel.

The speed of a shared two-core host drifts: one warm replay job of the
8-CPU grid took from 0.33 s to 0.64 s within one minute, in CPU time as
in wall time, and the same 15 s pass over the stream rungs ran 30%
faster or slower from one run to the next.  A timing of the program
alone then says as much about the neighbours as about the program.

So every timed operation is also scaled to a reference host speed: its
host seconds times ``REF_S / k``, where ``k`` is the mean kernel time of
the two samples that bracket the operation and ``REF_S`` is the
kernel's median time on the reference host (a 2-vCPU VM at 2.1 GHz).
The kernel is the benchmark's own Python -- list indexing and dict
updates, the operations the replay walks are made of -- so no change to
the program can move it.  Sampling at most every ``INTERVAL_S`` seconds,
at operation boundaries, costs under 5% of a run.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

#: Median kernel time on the reference host, in seconds.
REF_S = 0.011
#: Least host time between two samples.
INTERVAL_S = 0.25


class HostSpeed:
    def __init__(self):
        rng = random.Random(0)
        self._table = [rng.randrange(1 << 30) for _ in range(1 << 16)]
        self._index = [rng.randrange(1 << 16) for _ in range(25000)]
        self._times = []    # when each sample ended
        self._factors = []  # REF_S / kernel seconds, per sample

    def _kernel(self) -> int:
        table, counts = self._table, {}
        for i in self._index:
            value = table[i]
            key = value & 0x3FFF
            counts[key] = counts.get(key, 0) + (value >> 7)
        return len(counts)

    def sample(self) -> None:
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self._times.append(t1)
        self._factors.append(REF_S / (t1 - t0))

    def maybe_sample(self) -> None:
        """Sample unless the last sample is more recent than INTERVAL_S."""
        if not self._times or perf_counter() - self._times[-1] >= INTERVAL_S:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the operation that ran from t0 to t1.

        Needs a sample before t0 and one after t1: callers sample before
        each operation and once more after the last.
        """
        before = self._factors[bisect_right(self._times, t0) - 1]
        after = self._factors[bisect_left(self._times, t1)]
        return (t1 - t0) * (before + after) / 2

    @property
    def median_factor(self) -> float:
        return median(self._factors)
