"""Deterministic chunked execution.

Work over replications is split into fixed-size chunks whose boundaries do
not depend on the worker count; each chunk writes into preallocated slots
keyed by replication index, so results are byte-identical for any number of
threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .errors import ParameterError

DEFAULT_CHUNK = 256


def run_chunked(total: int, task, chunk_size: int = DEFAULT_CHUNK, threads: int = 1):
    """Call ``task(start, stop)`` over fixed chunk ranges covering [0, total)."""
    if chunk_size < 1:  # no chunk would run, and the caller's buffers would stay unwritten
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    ranges = [(s, min(s + chunk_size, total)) for s in range(0, total, chunk_size)]
    if threads is None or threads <= 1 or len(ranges) <= 1:
        for a, b in ranges:
            task(a, b)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for _ in pool.map(lambda ab: task(*ab), ranges):
            pass
