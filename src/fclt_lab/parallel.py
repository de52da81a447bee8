"""Deterministic chunked execution.

Work over replications is split into chunks sized from one byte budget,
``CHUNK_BYTES``, over the bytes of one replication's work, so a chunk holds
about ``max(CHUNK_BYTES, one row)`` whatever the row length. The boundaries
do not depend on the worker count; each chunk writes into preallocated slots
keyed by replication index, so results are byte-identical for any number of
threads.

The worker threads of a thread count outlive the call: one pool per count
serves every later call, so a worker keeps the tile workspace of ``scan``
from one call to the next. A task therefore must not itself run chunks on
more than one thread, which would wait on the pool it occupies.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait

CHUNK_BYTES = 2**25

_POOLS: dict[int, ThreadPoolExecutor] = {}  # by thread count, kept for the process
_POOLS_LOCK = threading.Lock()


def run_chunked(total: int, task, row_bytes: int, threads: int = 1):
    """Call ``task(start, stop)`` over chunk ranges covering [0, total).

    ``row_bytes`` is the memory of one unit of work. The chunk count is
    ``ceil(total * row_bytes / CHUNK_BYTES)``, at most ``total`` and at
    least one, and chunk sizes differ by at most one.
    """
    count = max(1, min(total, -(-total * row_bytes // CHUNK_BYTES)))
    bounds = [total * i // count for i in range(count + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    if threads is None or threads <= 1 or len(ranges) <= 1:
        for a, b in ranges:
            task(a, b)
        return
    with _POOLS_LOCK:
        if threads not in _POOLS:
            _POOLS[threads] = ThreadPoolExecutor(max_workers=threads)
        pool = _POOLS[threads]
    futures = [pool.submit(task, a, b) for a, b in ranges]
    try:
        for future in futures:
            future.result()
    finally:  # a failed chunk cancels the chunks not started, and none runs on past the call
        for future in futures:
            future.cancel()
        wait(futures)
