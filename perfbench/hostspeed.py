"""The host's speed, sampled with a fixed reference kernel while units run.

The benchmark shares a few cores of a busy host whose speed swings by tens
of percent from one few-second stretch to the next and drifts over minutes.
Samples taken between units miss those swings, so a timer signal
interrupts the running unit every ``PERIOD_S`` and runs the reference kernel
for ``BURST_S``. Throughput is then also given in reference seconds: the
unit's own time (the bursts taken out) times the kernel's speed over the
same stretch. The kernel is benchmark code, so a change to the program
moves only the unit's own time. The program's state and outputs are not
touched; the digest gate checks that.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.1
BURST_S = 0.01
# Reference batches in one reference second: about what a 2-core x86 host
# of the kind the bounds were set on completes in a second.
REFERENCE_BATCHES_PER_S = 500


def _reference_batch(a, b) -> float:
    """One batch of the reference kernel: interpreter arithmetic on small
    numpy arrays and one small least-squares solve, like a control step."""
    x = np.zeros(3)
    total = 0.0
    for i in range(40):
        x = 0.5 * x + np.cross(a[i % 8, :3], a[(i + 3) % 8, :3])
        total += math.sqrt(float(x @ x)) + 0.25 * i
    return total + float(np.linalg.lstsq(a, b, rcond=None)[0][0])


class HostSpeed:
    """Reference batches completed, and the wall time they took, summed over
    the bursts of one run."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a, self._b = rng.normal(size=(8, 4)), rng.normal(size=8)
        self.batches = 0
        self.seconds = 0.0

    def _burst(self, signum, frame) -> None:
        start = time.perf_counter()
        while True:
            _reference_batch(self._a, self._b)
            self.batches += 1
            elapsed = time.perf_counter() - start
            if elapsed >= BURST_S:
                break
        self.seconds += elapsed

    @contextmanager
    def sampling(self):
        """Run a burst every ``PERIOD_S`` of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def reference_seconds(self, seconds: float) -> float:
        """``seconds`` of host time, spent while sampling, in reference
        seconds; NaN if no burst ran."""
        if not self.batches:
            return math.nan
        return seconds * self.batches / self.seconds / REFERENCE_BATCHES_PER_S
