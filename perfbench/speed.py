"""Reference-loop speed probe, to take machine contention out of the timings.

On a shared host each virtual CPU switches, every few seconds and
independently of the others, between full speed and about half speed.  The
cause is load on the host that the guest cannot see: CPU time slows with
wall time, and no steal is reported.  Raw times then spread far more from
run to run than any change worth detecting.  So every timing is also taken
as *normalised* time: raw time x ``REF_KERNEL_S`` / (time of a fixed loop
measured on the same CPU at the same moment).  That is the time the work
would take on a machine where the loop takes ``REF_KERNEL_S``.  The loop
makes small numpy calls from Python, the mix that dominates the training
code.  Its time tracked the slowdown of posterior draws, evaluation
rollouts and the W = 50 mixture gradient to about 2%, while raw times of
one macro ranged over a factor of two.  A pure-Python loop tracked them only to about 7%.

The loop does not touch the program, so a change to the program moves
normalised times exactly as it moves raw ones.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

REF_KERNEL_S = 150e-6  # the loop's CPU time on the reference machine
SAMPLE_EVERY_S = 0.02  # sampler thread period
_POINTS = np.linspace(0.0, 1.0, 64)


def kernel() -> tuple[float, float]:
    """Run the fixed loop once; return its (CPU time, wall time) on the calling thread."""
    cpu, wall = time.thread_time(), time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.exp(_POINTS[i % 64]))
    return time.thread_time() - cpu, time.perf_counter() - wall


def normalise(raw_s: float, kernel_cpu_s: float) -> float:
    return raw_s * REF_KERNEL_S / kernel_cpu_s


class Sampler:
    """One thread per usable CPU, pinned there, timing the loop every ``SAMPLE_EVERY_S``.

    For work that runs in other processes (the grid's pool workers) while
    this process waits.  Each thread costs its CPU about 1.5%.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pins this thread only
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.samples.append(kernel()[0])

    def __enter__(self) -> "Sampler":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()
        if not self.samples:  # a unit shorter than one period: sample once now
            self.samples.append(kernel()[0])

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
