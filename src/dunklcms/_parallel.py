"""Optional process-level parallelism for embarrassingly parallel checks.

The worker count comes from the DUNKLCMS_WORKERS environment variable
(default 1, meaning plain serial evaluation), clamped to the CPUs this
process may run on.  Results always come back in input order, so reports stay
deterministic regardless of the worker count.
"""

from __future__ import annotations

import os


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    try:
        n = int(os.environ.get("DUNKLCMS_WORKERS", "1"))
    except ValueError:
        return 1
    return max(1, min(n, _usable_cpus()))


def ordered_map(fn, items):
    """Map preserving order; distributes across processes when configured."""
    items = list(items)
    n = min(worker_count(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    # imported here: the pool's modules (concurrent.futures, multiprocessing)
    # take longer to load than many serial requests take to run
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (4 * n))
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items, chunksize=chunk))
