"""Lagrangian flow of catalog fields and the tangent (variational) cocycle.

Positions and tangent matrices are advanced jointly by classical fixed-step
RK4, and every step taken comes from one schedule, ``_steps``, built once per
call.  It cuts the interval at every crossing of a field time breakpoint, so
no step straddles a switching time, shares the step count over the pieces,
and queries the field at each step's midpoint time.  Catalog fields are
constant in time between breakpoints, so this is exact in t, and leaves the
classical order for the autonomous members.  ``VelocityField.rk4_steps``
gives the step count to use; one step per steady piece is exact for the
shear members.

When ``VelocityField.constant_along_flow`` holds, the four RK4 stages read
the same velocity and gradient bitwise, so a step evaluates them once and
reuses them in the unchanged RK4 combination.  The gradient G of such a
field has one nonzero entry, so the tangent stages G (T + c k1) equal
k1 = G T up to signed zeros, and the step takes k1 for all four.  ``advect``
of a shear updates only the moved column, in place, by the same operations
in the same order (x + (h/6)*0 and the wrap leave the other unchanged
bitwise); every other field keeps the oracle step.

``advect`` and ``advect_cocycle`` walk their points as rows of shape (-1, 2),
in bounded pieces.  Positions are wrapped to [0,1) after every full step;
tangents live on the universal cover and are never wrapped.  A shear
``advect`` gives each piece its own scratch, so no state outlives a call and
concurrent calls on disjoint rows do not interfere.
"""

import numpy as np

from .errors import ConfigError, IntegrationDivergedError
from .fields import VelocityField
from .torus import wrap
from .workers import run_chunked

TANGENT_BLOWUP = 1e12


def _steps(field, t0, t1, steps):
    """The (midpoint time, length) of each RK4 step from t0 to t1, in order, as a list.

    [t0, t1] is cut at every crossing k + frac of a field time breakpoint, and
    `steps` are shared over the pieces in proportion to their length, at least
    one each.  Raises ConfigError unless steps >= 1.
    """
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if t0 == t1:
        return []
    lo, hi = (t0, t1) if t1 > t0 else (t1, t0)
    cuts = []
    for frac in field.time_breakpoints:
        k = np.ceil(lo - frac)
        while k + frac < hi:
            if k + frac > lo:
                cuts.append(k + frac)
            k += 1.0
    times = [lo] + sorted(cuts) + [hi]
    if t1 < t0:
        times = times[::-1]
    pieces = list(zip(times[:-1], times[1:]))
    total = sum(abs(b - a) for a, b in pieces)
    schedule = []
    for a, b in pieces:
        count = max(1, int(round(steps * abs(b - a) / total)))
        h = (b - a) / count
        schedule += [(a + (j + 0.5) * h, h) for j in range(count)]
    return schedule


def _check_finite(pts):
    if not np.all(np.isfinite(pts)):
        raise IntegrationDivergedError("a flow position is not finite; check the input points")


def _integrate(field: VelocityField, points, schedule, with_tangent):
    # Position arithmetic below is identical whether or not the tangent is
    # carried, so advect and advect_cocycle agree bitwise on positions.
    pts = wrap(np.asarray(points, dtype=float))
    if with_tangent:
        tangent = np.broadcast_to(np.eye(2), pts.shape + (2,)).copy()
    for t_mid, h in schedule:
        v1 = field.velocity(t_mid, pts)
        if field.constant_along_flow:
            # the stage points p2..p4 differ from pts only along v1
            v2 = v3 = v4 = v1
        else:
            p2 = pts + (0.5 * h) * v1
            v2 = field.velocity(t_mid, p2)
            p3 = pts + (0.5 * h) * v2
            v3 = field.velocity(t_mid, p3)
            p4 = pts + h * v3
            v4 = field.velocity(t_mid, p4)
        if with_tangent:
            k1 = field.gradient(t_mid, pts) @ tangent
            if field.constant_along_flow:
                # G's one nonzero entry reads the row of T + c k1 that k1 leaves at +-0
                k2 = k3 = k4 = k1
            else:
                g2, g3, g4 = (field.gradient(t_mid, p) for p in (p2, p3, p4))
                k2 = g2 @ (tangent + (0.5 * h) * k1)
                k3 = g3 @ (tangent + (0.5 * h) * k2)
                k4 = g4 @ (tangent + h * k3)
            tangent = tangent + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.abs(tangent) < TANGENT_BLOWUP):
                raise IntegrationDivergedError(
                    "tangent entry exceeded 1e12; reduce the step size or the field amplitude"
                )
        pts = wrap(pts + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4))
    _check_finite(pts)
    return (pts, tangent) if with_tangent else pts


def _shear_in_place(field, pts, schedule):
    """_integrate of a shear without a tangent, in place, updating only the moved column.

    ``schedule`` is the list of ``_steps``; every float intermediate goes to one scratch
    of 3 len(pts) floats.
    """
    rows = len(pts)
    scratch = np.empty(3 * rows)
    speed, twice, total = scratch[:rows], scratch[rows : 2 * rows], scratch[2 * rows : 3 * rows]
    pts -= np.floor(pts, out=scratch[: 2 * rows].reshape(pts.shape))
    for t_mid, h in schedule:
        moved, v = field.shear_speed(t_mid, pts, out=speed)
        column = pts[..., moved]
        # (h/6)*(v + 2v + 2v + v), summed left to right as the RK4 combination is
        np.multiply(v, 2.0, out=twice)
        np.add(v, twice, out=total)
        total += twice
        total += v
        total *= h / 6.0
        column += total
        column -= np.floor(column, out=total)
    _check_finite(pts)
    return ()


def advect(field: VelocityField, x, t0: float, t1: float, steps: int, out=None):
    """RK4 flow X(t1, t0, x) into ``out`` (C-contiguous, may be ``x``); t1 < t0 inverts it."""
    schedule = _steps(field, float(t0), float(t1), steps)
    x = np.asarray(x, dtype=float)
    if out is None:
        out = x.copy()
    elif out is not x:
        np.copyto(out, x)
    pieces = out.reshape(-1, 2)
    if field.constant_along_flow and field.facts.shears:
        run_chunked(lambda piece: _shear_in_place(field, piece, schedule), pieces, ())
    else:
        run_chunked(lambda piece: _integrate(field, piece, schedule, False), pieces, (pieces,))
    return out


def advect_cocycle(field: VelocityField, x, t0: float, t1: float, steps: int):
    """Jointly integrate position and tangent matrix W_t (identity at t0).

    Returns (position (..., 2), tangent (..., 2, 2)).
    """
    schedule, x = _steps(field, float(t0), float(t1), steps), np.asarray(x, dtype=float)
    rows = x.reshape(-1, 2)
    out = (np.empty_like(rows), np.empty(rows.shape + (2,)))
    run_chunked(lambda piece: _integrate(field, piece, schedule, True), rows, out)
    return out[0].reshape(x.shape), out[1].reshape(x.shape + (2,))
