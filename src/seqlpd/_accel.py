"""Worker-pool sizing.

``SEQLPD_THREADS`` caps the worker pool used for batch descriptor
extraction; it never changes numeric results because work is split only
across independent submaps.
"""

import os


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
