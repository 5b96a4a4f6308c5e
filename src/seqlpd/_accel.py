"""Worker-pool sizing and the shared-list job runner.

``SEQLPD_THREADS`` caps the worker pools: the batch descriptor extraction
and the restarts of the elbow clustering.  Clustering further caps its pool
at the CPUs the process may run on and stays serial for small maps, whose
jobs are too short to gain from threads.  Neither pool changes numeric
results: work is split only across independent jobs (submaps, seeded
restarts) and gathered in job order.
"""

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    """Worker count for batch jobs: SEQLPD_THREADS if set and positive, else cpu count."""
    raw = os.environ.get("SEQLPD_THREADS")
    if raw:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n > 0:
            return n
    return os.cpu_count() or 1


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_jobs(fn, jobs, workers: int) -> list:
    """``[fn(job) for job in jobs]``, computed by up to ``workers`` threads.

    The calling thread takes jobs from the shared list alongside
    ``workers - 1`` pool threads rather than waiting on them, so one thread
    fewer holds a malloc arena.  Results come back in job order whatever
    the scheduling; the first exception stops the hand-out and is re-raised.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    results = [None] * len(jobs)
    tickets = itertools.count()  # next() on it is atomic under the GIL
    failed = threading.Event()

    def drain():
        while not failed.is_set():
            i = next(tickets)
            if i >= len(jobs):
                return
            try:
                results[i] = fn(jobs[i])
            except BaseException:
                failed.set()
                raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for h in helpers:
            h.result()
    return results
