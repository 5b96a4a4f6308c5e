import importlib
import os
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(__file__))

import seqlpd  # noqa: E402


def _resolve(ref: str):
    """The function named by "module:function", a module of tests/."""
    module, fn = ref.split(":")
    return getattr(importlib.import_module(module), fn)


def in_child(ref: str, *args: str, blas_threads: int = 1) -> str:
    """What the function ``ref`` ("module:function") returns for the string
    ``args``, printed by a fresh interpreter whose BLAS has ``blas_threads``
    threads.  The child imports the same seqlpd as the tests."""
    threads = str(blas_threads)
    path = [os.path.dirname(os.path.dirname(seqlpd.__file__)), os.path.dirname(__file__)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, conftest; print(conftest._resolve(sys.argv[1])(*sys.argv[2:]))"
    proc = subprocess.run([sys.executable, "-c", code, ref, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def longest_gil_hold(job, tries: int = 3) -> float:
    """Seconds of the longest gap between two turns of a Python loop on the
    calling thread while ``job()`` runs on another thread; the best of ``tries``.

    With a 0.5 ms switch interval the loop gets the GIL back within about
    that whenever the job's thread runs Python or a call that releases the
    GIL, so a long gap is one call that held it.  Run it where the job's
    BLAS has one thread (``in_child``): a second BLAS thread takes the
    loop's CPU on a two-CPU machine, and the gap then measures the OS
    scheduler, not the GIL.
    """
    job()  # warm: first-use allocations and widened tensors
    old = sys.getswitchinterval()
    sys.setswitchinterval(5e-4)
    try:
        best = float("inf")
        for _ in range(tries):
            worker = threading.Thread(target=job)
            gap = 0.0
            last = time.perf_counter()
            worker.start()
            while worker.is_alive():
                now = time.perf_counter()
                gap = max(gap, now - last)
                last = now
            worker.join()
            best = min(best, gap)
        return best
    finally:
        sys.setswitchinterval(old)


def gil_hold(job_factory: str) -> float:
    """``longest_gil_hold`` of the job that the function ``job_factory``
    ("module:function") builds, measured in a child with one BLAS thread."""
    return float(in_child("conftest:_gil_hold_here", job_factory))


def _gil_hold_here(job_factory: str) -> float:
    return longest_gil_hold(_resolve(job_factory)())
