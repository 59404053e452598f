"""Measure-preserving maps of the torus under one interface.

Three kinds: the hyperbolic toral automorphism with matrix [[2,1],[1,1]]
(ground truth with known spectrum and entropy), the baker's map (piecewise
affine with a singular line), and time-one maps of catalog velocity fields.
All operations accept point arrays of shape (..., 2) and are vectorized.
"""

import numpy as np

from . import flow
from .errors import ConfigError, SingularInputError
from .torus import wrap

MAP_KINDS = ("cat", "baker", "time_one_flow")

CAT_MATRIX = np.array([[2.0, 1.0], [1.0, 1.0]])
CAT_INVERSE_MATRIX = np.array([[1.0, -1.0], [-1.0, 2.0]])


class MeasurePreservingMap:
    """Interface: apply, apply_with_jacobian, inverse, all Lebesgue-measure preserving."""

    kind = "abstract"

    def apply(self, points):
        raise NotImplementedError

    def jacobian(self, points):
        raise NotImplementedError

    def inverse(self, points):
        raise NotImplementedError

    def apply_with_jacobian(self, points):
        """One forward step together with its Jacobian (overridden where fused)."""
        return self.apply(points), self.jacobian(points)

    def singular_mask(self, points):
        """Boolean mask of points on the map's singular set (empty by default)."""
        points = np.asarray(points, dtype=float)
        return np.zeros(points.shape[:-1], dtype=bool)


class CatMap(MeasurePreservingMap):
    kind = "cat"

    def apply(self, points):
        """(2x + y, x + y) wrapped, bitwise equal to wrap(points @ CAT_MATRIX.T).

        2x is exact, so each entry is rounded once, as in the matrix product;
        computed elementwise it needs no BLAS call and no thread.
        """
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        out = np.empty_like(points)
        np.multiply(x, 2.0, out=out[..., 0])
        out[..., 0] += y
        np.add(x, y, out=out[..., 1])
        out -= np.floor(out)
        return out

    def jacobian(self, points):
        points = np.asarray(points, dtype=float)
        return np.broadcast_to(CAT_MATRIX, points.shape[:-1] + (2, 2)).copy()

    def inverse(self, points):
        points = np.asarray(points, dtype=float)
        return wrap(points @ CAT_INVERSE_MATRIX.T)


class BakerMap(MeasurePreservingMap):
    """(x, y) -> (2x, y/2) on the left half, (2x - 1, (y + 1)/2) on the right.

    The forward map is singular on {x = 1/2}, the inverse on {y = 1/2}; both
    lines have measure zero and evaluation on them raises.
    """

    kind = "baker"

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        if np.any(x == 0.5):
            raise SingularInputError("baker map evaluated on the singular line x = 1/2")
        right = x > 0.5
        out = np.empty_like(points)
        out[..., 0] = np.where(right, 2.0 * x - 1.0, 2.0 * x)
        out[..., 1] = np.where(right, 0.5 * (y + 1.0), 0.5 * y)
        return wrap(out)

    def jacobian(self, points):
        points = np.asarray(points, dtype=float)
        if np.any(points[..., 0] == 0.5):
            raise SingularInputError("baker jacobian evaluated on the singular line x = 1/2")
        jac = np.zeros(points.shape[:-1] + (2, 2))
        jac[..., 0, 0] = 2.0
        jac[..., 1, 1] = 0.5
        return jac

    def inverse(self, points):
        points = np.asarray(points, dtype=float)
        x, y = points[..., 0], points[..., 1]
        if np.any(y == 0.5):
            raise SingularInputError("baker inverse evaluated on the singular line y = 1/2")
        upper = y > 0.5
        out = np.empty_like(points)
        out[..., 0] = np.where(upper, 0.5 * (x + 1.0), 0.5 * x)
        out[..., 1] = np.where(upper, 2.0 * y - 1.0, 2.0 * y)
        return wrap(out)

    def singular_mask(self, points):
        points = np.asarray(points, dtype=float)
        return points[..., 0] == 0.5


class TimeOneFlowMap(MeasurePreservingMap):
    """Period map X_1 of a catalog field, with tangent as Jacobian."""

    kind = "time_one_flow"

    def __init__(self, field):
        self.field = field
        self.steps = field.rk4_steps(1.0)

    def apply(self, points):
        return flow.advect(self.field, points, 0.0, 1.0, self.steps)

    def inverse(self, points):
        return flow.advect(self.field, points, 1.0, 0.0, self.steps)

    def apply_with_jacobian(self, points):
        return flow.advect_cocycle(self.field, points, 0.0, 1.0, self.steps)


def make_map(kind, field=None) -> MeasurePreservingMap:
    """Construct a map by kind name; time_one_flow requires a field."""
    if kind == "cat":
        return CatMap()
    if kind == "baker":
        return BakerMap()
    if kind == "time_one_flow":
        if field is None:
            raise ConfigError("map kind time_one_flow requires a velocity field")
        return TimeOneFlowMap(field)
    raise ConfigError(f"unknown map kind {kind!r}; valid kinds: {', '.join(MAP_KINDS)}")
