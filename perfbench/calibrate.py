"""A fixed reference loop that measures how fast the machine is right now.

On a shared machine the same work can take twice as long from one
minute to the next, because other tenants compete for the same cores.
The benchmark therefore times this loop every CALIBRATE_EVERY_S between
items, and once more at the end, and scales each measured time by
``NOMINAL_S / reference time`` around it (the mean of the two samples
that bracket its interval): a time in *calibrated seconds* is what the
work would take when the loop runs in NOMINAL_S.  The loop is pure-Python integer work, like
idelink, and lives here so that no change to idelink can change it.
Raw times are reported next to the calibrated ones.
"""

from __future__ import annotations

import random
import statistics
import time

from workloads import bareiss_det

NOMINAL_S = 0.010
CALIBRATE_EVERY_S = 0.2

_rng = random.Random(0)
_MATRICES = [
    tuple(tuple(_rng.randint(-9, 9) for _ in range(8)) for _ in range(8)) for _ in range(250)
]


def reference() -> float:
    """Seconds the fixed loop takes now (about NOMINAL_S on an idle core)."""
    start = time.perf_counter()
    acc = 0
    for m in _MATRICES:
        acc += bareiss_det(m)
        cols = {j: tuple(row[j] for row in m) for j in range(len(m))}
        acc += sum(len(c) for c in cols.values())
    return time.perf_counter() - start


def reference_median() -> float:
    """Median of three reference timings; the first calls also warm the loop up."""
    return statistics.median(reference() for _ in range(3))


class Calibration:
    """Reference timings taken between items; ``index`` names the current interval."""

    def __init__(self):
        self.refs: list[float] = []
        self._last = float("-inf")

    @property
    def index(self) -> int:
        return len(self.refs) - 1

    def tick(self):
        """Time the reference loop if CALIBRATE_EVERY_S passed since the last one."""
        now = time.perf_counter()
        if now - self._last >= CALIBRATE_EVERY_S:
            self.refs.append(reference())
            self._last = time.perf_counter()

    def factors(self) -> list[float]:
        """Per interval: NOMINAL_S over the mean of the samples that open and close it.

        Call after a final ``reference()`` sample has closed the last
        interval (``close``); that sample opens no interval of its own.
        """
        refs = self.refs
        return [NOMINAL_S * 2 / (refs[k] + refs[k + 1]) for k in range(len(refs) - 1)]

    def close(self):
        """Close the last interval with one more sample."""
        self.refs.append(reference())
