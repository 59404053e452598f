"""Geodesic distance on the flat 2-torus, for comparing points in tests."""

import numpy as np


def wrapped_difference(a, b):
    """Representative of a - b with each coordinate in [-1/2, 1/2)."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return diff - np.round(diff)


def distance(a, b):
    """Geodesic distance on the torus."""
    return np.linalg.norm(wrapped_difference(a, b), axis=-1)
