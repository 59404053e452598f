"""Batched point computations in bounded row pieces.

A batch is walked in pieces of 4096 to 8192 rows, so the working set does
not grow with the batch, and each piece's result is written into the same
rows of an output the caller allocates, so the output does not depend on
where the batch is cut.
"""

import numpy as np

_PIECE_ROWS = 8192


def piece_bounds(rows):
    """(start, stop) of each piece of a batch of ``rows`` rows, in order."""
    if rows <= _PIECE_ROWS:
        return [(0, rows)]
    cuts = np.linspace(0, rows, -(-rows // _PIECE_ROWS) + 1, dtype=int).tolist()
    return list(zip(cuts[:-1], cuts[1:]))


def run_chunked(func, points, out):
    """Write ``func`` of each row piece of ``points`` into the same rows of ``out``.

    ``points`` is anything with a length that slices by rows (an array, or
    a ``range`` of row indices).  ``out`` is a tuple or list of arrays with
    ``len(points)`` rows, returned when filled; ``func`` returns one array
    per entry (a bare array for one) and must be independent across rows.
    The pieces are visited one at a time, in order, on the calling thread:
    that is part of the contract, because two samplers draw inside ``func``
    and each stream must equal one draw of the whole batch: the orbit coder
    draws each piece's points and codes every segment of their orbits there,
    and ``nu_log_bound`` draws the probes of each piece's cells there.
    """
    for a, b in piece_bounds(len(points)):
        parts = func(points[a:b])
        for target, part in zip(out, parts if isinstance(parts, tuple) else (parts,)):
            target[a:b] = part
    return out
