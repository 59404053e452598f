"""Worker-count control via the ERGOMIX_THREADS environment variable.

Batched point computations split into per-worker chunks processed on a
thread pool and reassembled in index order, so results are bitwise identical
for every worker count.  ERGOMIX_THREADS=0 or unset picks a small automatic
cap.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ConfigError

_MIN_CHUNKED_BATCH = 8192


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


def run_chunked(func, points):
    """Apply ``func`` to row chunks of ``points``; concatenate in order.

    ``func`` must be independent across rows.  Small batches run inline, and
    no chunk is smaller than _MIN_CHUNKED_BATCH rows.
    """
    count = len(points)
    workers = min(worker_count(), count // _MIN_CHUNKED_BATCH)
    if workers <= 1:
        return func(points)
    bounds = np.linspace(0, count, workers + 1, dtype=int)
    chunks = [points[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(func, chunks))
    if isinstance(results[0], tuple):
        return tuple(np.concatenate(parts, axis=0) for parts in zip(*results))
    return np.concatenate(results, axis=0)
