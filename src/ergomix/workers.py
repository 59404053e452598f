"""Worker-count control via the ERGOMIX_THREADS environment variable.

Batched point computations split into one contiguous block per worker,
processed on a thread pool, and every row's result is written to the same
row of an output the caller allocates, so results are bitwise identical for
every worker count.  One pool of worker_count() threads is created on the
first batched call and kept for the process; it starts a thread only when a
block needs one.  Every worker, and the inline path, walks its block in
pieces of at most _PIECE_ROWS rows and keeps no piece result, so a thread's
working set depends neither on the batch nor on which thread takes which
block.  ERGOMIX_THREADS=0 or unset picks a small automatic cap.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

_MIN_CHUNKED_BATCH = 8192
_PIECE_ROWS = 16384  # a block of B >= 8192 rows walks pieces of 8192 to 16384 rows

_POOL = None  # the ThreadPoolExecutor kept for the process


def worker_count() -> int:
    raw = os.environ.get("ERGOMIX_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"ERGOMIX_THREADS must be a non-negative integer, got {raw!r}")
    if value < 0:
        raise ConfigError(f"ERGOMIX_THREADS must be a non-negative integer, got {raw!r}")
    if value == 0:
        return min(4, os.cpu_count() or 1)
    return value


def run_chunked(func, points, out):
    """Write ``func`` of each row piece of ``points`` into the same rows of ``out``.

    ``out`` is a tuple of arrays with ``len(points)`` rows, returned when
    filled; ``func`` returns one array per entry (a bare array for one) and
    must be independent across rows.  Small batches run inline, and no
    worker gets a block smaller than _MIN_CHUNKED_BATCH rows.  Called from
    one thread at a time.
    """

    def walk(span):
        lo, hi = span
        pieces = max(1, -(-(hi - lo) // _PIECE_ROWS))
        cuts = np.linspace(lo, hi, pieces + 1, dtype=int)
        for a, b in zip(cuts[:-1], cuts[1:]):
            parts = func(points[a:b])
            for target, part in zip(out, parts if isinstance(parts, tuple) else (parts,)):
                target[a:b] = part

    count = len(points)
    workers = min(worker_count(), count // _MIN_CHUNKED_BATCH)
    if workers <= 1:
        walk((0, count))
        return out
    global _POOL
    if _POOL is None:
        _POOL = ThreadPoolExecutor(max_workers=worker_count())
    bounds = np.linspace(0, count, workers + 1, dtype=int)
    list(_POOL.map(walk, zip(bounds[:-1], bounds[1:])))
    return out
