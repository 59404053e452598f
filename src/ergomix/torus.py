"""Coordinate conventions on the flat 2-torus [0,1)^2.

Points are plain numpy arrays of shape (..., 2).  All public operations keep
coordinates in the canonical box [0, 1).
"""

import numpy as np

DIM = 2


def wrap(points):
    """Map coordinates to the canonical box [0, 1)."""
    points = np.asarray(points, dtype=float)
    return points - np.floor(points)


def uniform_points(rng, count):
    """Draw ``count`` i.i.d. uniform points on the torus."""
    return rng.random((count, DIM))
