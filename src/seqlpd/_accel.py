"""The package's one worker pool: its sizing and the shared-list job runner.

``SEQLPD_THREADS`` sizes the pool that runs the frames of ``describe`` and
the seeded restarts of the elbow clustering; clustering further caps it at
the usable CPUs and stays serial for small maps, whose jobs are too short to
gain from threads.  No worker count changes a result or the error raised.
No other module of the package starts a thread.
"""

import itertools
import os
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
    the scheduling.  A failure stops the hand-out and the jobs already out
    finish; jobs go out in index order, so the lowest-index failure is the
    one a serial loop would raise, and its exception is re-raised.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [fn(job) for job in jobs]
    results = [None] * len(jobs)
    tickets = itertools.count()  # next() on it is atomic under the GIL
    errors = {}  # job index -> exception

    def drain():
        while not errors:
            i = next(tickets)
            if i >= len(jobs):
                return
            try:
                results[i] = fn(jobs[i])
            except BaseException as exc:  # re-raised below, once every thread has stopped
                errors[i] = exc

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for h in helpers:
            h.result()
    if errors:
        raise errors[min(errors)]
    return results
