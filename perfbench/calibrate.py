"""Machine-speed calibration for host timings on shared, noisy machines.

On a small shared VM the speed available to one process drifts by tens
of percent within seconds, because neighbours contend for the same
physical core.  :func:`timed` therefore samples the machine's speed
*during* the timed region: an interval timer interrupts it every
``TICK_S`` seconds to run a tiny fixed reference kernel, which
exercises the mix the simulator spends its time on (method calls,
attribute access, heap and dict traffic, float math, tiny numpy
ufuncs).  The kernel's own time is subtracted from the wall, and the
rest is scaled by how slow the kernel ran:

    calibrated_s = (wall_s - kernel time) * REFERENCE_S / mean kernel time

that is, seconds on a machine where one kernel run takes exactly
``REFERENCE_S``.  The kernel is the benchmark's own code, so no change
to the program under test can move it; a change to the program moves
the wall only.  Raw wall times are reported beside calibrated ones.
"""

from __future__ import annotations

import gc
import heapq
import math
import signal
import statistics
import time

import numpy as np

#: Seconds between speed samples inside a timed region.
TICK_S = 0.05
#: Rounds of the reference kernel per sample (about 2 ms).
TICK_ROUNDS = 80
#: Kernel time, in seconds, that calibrated timings are scaled to:
#: roughly one sample's time on an idle 2-vCPU Xeon VM.
REFERENCE_S = 0.002


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def at(self, x: float) -> float:
        return self.a * x + self.b


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes right now.

    The garbage collector is off while it runs, so no collection, whose
    cost grows with the objects the program holds, lands in a sample.
    Every object the kernel allocates is freed before it returns.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        xs = np.arange(16, dtype=float)
        points = [_Point(i * 0.5, 1.0) for i in range(32)]
        heap: list = []
        table: dict = {}
        acc = 0.0
        for r in range(TICK_ROUNDS):
            for point in points:
                acc += point.at(r)
                heapq.heappush(heap, (acc % 97.0, r))
            while len(heap) > 16:
                heapq.heappop(heap)
            table[r & 63] = table.get(r & 63, 0.0) + math.sqrt(acc)
            ys = np.minimum(xs, r * 0.01)
            acc += float(ys.sum()) - ys.tolist()[3]
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def timed(fn):
    """Run ``fn()`` sampling machine speed; returns (result, wall_s, calibrated_s).

    ``wall_s`` excludes the samples' own time.  A region shorter than
    one tick is calibrated by one sample taken right after it.
    """
    samples: list[float] = []

    def tick(signum, frame):
        samples.append(kernel_s())

    previous = signal.signal(signal.SIGALRM, tick)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = time.perf_counter() - t0 - sum(samples)
        signal.signal(signal.SIGALRM, previous)
    if not samples:
        samples.append(kernel_s())
    return result, wall, wall * REFERENCE_S / statistics.fmean(samples)


def untimed(fn):
    """The plain-clock counterpart of :func:`timed` (for traced runs)."""
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall

