"""Timings at a nominal machine speed, from a program-free probe.

The shared machines this benchmark runs on change speed by up to a factor
of two from one minute to the next, and the program and any other
CPU-bound code slow down together.  So every phase takes probe samples
throughout its timed window: each runs a fixed loop that runs no program
code, half interpreter work and half small numpy kernels, the mix the
program's decode is made of.  Its data is small, so the program's cache
footprint does not change it.  A timing taken at time ``t`` is scaled by
``(NOMINAL_S / p) ** SENSITIVITY``, where ``p`` is the median probe time
within ``WINDOW_S`` seconds of ``t``: the timing the same work would have
taken on a machine where the probe takes ``NOMINAL_S``.  A change to the
program moves its timings but not the probe.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List, Optional

import numpy as np

#: Iterations of the probe's interpreter loop and of its numpy loop.
PYTHON_LOOPS = 1500
NUMPY_LOOPS = 150
#: The probe time that defines nominal speed, about what an unloaded
#: 2-core x86-64 VM takes for one probe.
NOMINAL_S = 0.0005
#: How the program's time follows the probe's: on the 2-core VM the
#: benchmark was tuned on, backfill calls and query operations took 1.6-1.8x
#: as long in its slow minutes as in its fast ones while the probe took
#: 1.8-2.1x, a power of about 0.8.
SENSITIVITY = 0.8
#: Probes within this many seconds of a timing set its scale.
WINDOW_S = 0.5


_ARRAY = np.linspace(0.0, 1.0, 48)
_OFFSET = np.linspace(1.0, 2.0, 48)


def probe() -> float:
    """Seconds of one run of the fixed probe loops."""
    started = time.perf_counter()
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(PYTHON_LOOPS):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total += table[i % 97] ** 0.5
    array = _ARRAY
    for _ in range(NUMPY_LOOPS):
        array = np.exp(-array) + _OFFSET
        total += float(array.argmax())
    return time.perf_counter() - started


class Speedometer:
    """Probe samples taken through a phase, and the scale they give."""

    def __init__(self):
        self._at: List[float] = []
        self._seconds: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Take ``count`` probes now (times on the ``time.monotonic`` clock)."""
        for _ in range(count):
            at = time.monotonic()
            self._at.append(at)
            self._seconds.append(probe())

    def factor(self, start: float, end: Optional[float] = None) -> float:
        """The scale of a timing over ``[start, end]``: ``NOMINAL_S`` over
        the median probe within ``WINDOW_S`` of it (or the nearest probe if
        none is), to the power ``SENSITIVITY``."""
        if not self._at:
            raise RuntimeError("no probe samples")
        end = start if end is None else end
        low = bisect.bisect_left(self._at, start - WINDOW_S)
        high = bisect.bisect_right(self._at, end + WINDOW_S)
        if low == high:
            low = min(low, len(self._at) - 1)
            high = low + 1
        return (NOMINAL_S / statistics.median(self._seconds[low:high])) ** SENSITIVITY

    def summary(self) -> Dict[str, float]:
        """Provenance: how many probes, and their median in milliseconds."""
        return {
            "probes": len(self._seconds),
            "probe_median_ms": statistics.median(self._seconds) * 1000.0,
        }
