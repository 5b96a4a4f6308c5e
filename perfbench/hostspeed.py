"""Host-speed reference: scales measured seconds to a fixed host speed.

On a shared machine the host's speed drifts: on the shared 2-vCPU x86-64
virtual machine this benchmark was tuned on, one fixed numpy + Python kernel
took 0.78 s to 1.23 s within one minute, and process CPU time drifted as
much as wall time (no steal time was booked), so neither clock gives medians
that agree from run to run.  ``SpeedClock`` times a fixed reference kernel
at every boundary between measured segments.  The kernel is the benchmark's
own code, never the program's, so no change to the program can move it.  A
segment's seconds are multiplied by ``NOMINAL_S`` over the mean reference
time at the segment's two ends: the result reads as the seconds the segment
would take on a host where the kernel takes ``NOMINAL_S``.
Raw wall times go to the report line beside the scaled ones.
"""

import contextlib
import functools
import os
import statistics
import time

import numpy as np

NOMINAL_S = 0.012  # the kernel's time on the tuning host at its usual speed
REPEATS = 3        # timings per core and reference sample; the core's time is their median
MAX_CORES = 4      # cores timed per reference sample


@functools.cache
def _arrays():
    rng = np.random.default_rng(20190430)
    return {"pts": rng.normal(size=(320, 3)),
            "h": rng.normal(size=(1024, 64)).astype(np.float32),
            "w": (rng.normal(size=(64, 64)) / 8.0).astype(np.float32),
            "stream": rng.normal(size=(2048, 256)),
            "small": rng.normal(size=(24, 256))}


def _kernel():
    # the mix of the pipeline: a brute-force kNN, a small float32 MLP, a row
    # reduction, call-bound numpy on tiny arrays (as in k-means seeding and
    # window matching) and interpreter-bound Python
    a = _arrays()
    diff = a["pts"][:, None, :] - a["pts"][None, :, :]
    np.argpartition(np.einsum("ijk,ijk->ij", diff, diff), 8, axis=1)
    h = a["h"]
    for _ in range(16):
        h = np.tanh(h @ a["w"])
    (a["stream"] * a["stream"]).sum(axis=1).argmin()
    small = a["small"]
    c = small[0]
    for _ in range(120):
        d = ((small - c) ** 2).sum(axis=1)
        c = small[int(d.argmax())] * 0.5 + small.mean(axis=0) * 0.5
    acc = 0
    for j in range(12000):
        acc += j * j
    return acc


def _core_s() -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference_s() -> float:
    """One reference sample: the mean over this thread's cores of the kernel's median time.

    The cores drift apart (one ran the kernel 0.7x to 1.5x as fast as the
    other from second to second), and the describe pool uses them all, so
    the kernel runs pinned to each core the thread may use in turn; at most
    ``MAX_CORES``.  Single-threaded work is timed under ``pinned()``, so
    that the sample measures the one core it ran on.
    """
    cores = sorted(os.sched_getaffinity(0))
    per_core = []
    try:
        for core in cores[:MAX_CORES]:
            os.sched_setaffinity(0, {core})  # this thread only
            per_core.append(_core_s())
    finally:
        os.sched_setaffinity(0, cores)
    return statistics.fmean(per_core)


@contextlib.contextmanager
def pinned():
    """Run the calling thread, and the threads and processes it starts, on one core."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


class SpeedClock:
    """Splits a run into segments and gives each its speed factor."""

    def __init__(self):
        self.samples = [reference_s()]

    def split(self) -> float:
        """Close the segment since the last split; return its factor to fixed host speed."""
        self.samples.append(reference_s())
        return self.factor(self.samples[-2:])

    @staticmethod
    def factor(samples) -> float:
        """Factor to fixed host speed for work done while ``samples`` were taken."""
        return NOMINAL_S / statistics.median(samples)
