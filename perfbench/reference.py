"""Fixed reference kernel that tracks the speed of a shared machine.

On a machine shared with other tenants the same work can take 30-50%
longer from one second or minute to the next.  The benchmark times this
kernel between operations and divides each operation's time by the
slowdown the kernel showed just before and just after it, so runs made at
different moments compare the program and not the neighbours.  The kernel
mixes what cpgate spends its time on: tiny numpy products, mpmath arithmetic
and plain float math.  It shares no code with cpgate and does its mpmath
arithmetic in a context of its own at 53 bits, so the precision cpgate sets
on the global ``mpmath.mp`` does not reach it.  It does share the
interpreter: a change that makes every allocation or garbage collection
dearer slows the kernel too, and the scaled times then hide part of that
cost; the raw times are printed beside them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import mpmath
import numpy as np

# Median time of ``kernel`` on the 2-core x86-64 machine where the benchmark
# was calibrated (Python 3.11, numpy 2.4, pure-Python mpmath).
REFERENCE_MS = 1.8
SAMPLES_PER_PROBE = 3
WARMUP = 20
_MP = mpmath.MPContext()
_MP.prec = 53


def kernel():
    m = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    a = np.eye(2, dtype=complex)
    x = _MP.mpf(1)
    y = 0.0
    for i in range(150):
        a = m @ a
        x = x * _MP.mpf(1.0000001) + i
        y += math.sin(0.001 * i) * math.cos(y)
    return a, x, y


def slowdown() -> float:
    """Median kernel time of one probe over the calibrated time."""
    samples = []
    for _ in range(SAMPLES_PER_PROBE):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3 / REFERENCE_MS


def warm_up() -> None:
    for _ in range(WARMUP):  # first calls pay one-off numpy/mpmath set-up
        kernel()


class SpeedTrack:
    """Timed kernel probes; the slowdown over an interval is the mean of
    the probes on either side of it (> 1: slower than the calibration
    machine)."""

    def __init__(self):
        self.stamps: list[float] = []
        self.slowdowns: list[float] = []
        warm_up()

    def probe(self) -> None:
        self.slowdowns.append(slowdown())
        self.stamps.append(time.perf_counter())

    def around(self, start: float, end: float) -> float:
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        near = [self.slowdowns[k] for k in (before, after) if 0 <= k < len(self.stamps)]
        return sum(near) / len(near)
