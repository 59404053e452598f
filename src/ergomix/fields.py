"""Catalog of analytic divergence-free velocity fields on the 2-torus.

Every catalog member is 1-periodic in space and time, has an exact closed-form
gradient, and is divergence-free identically (not merely to discretization
error).  Time dependence, where present, is piecewise constant: a field is a
sequence of steady fields switched at the fractions-of-a-period listed in
``VelocityField.time_breakpoints``.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IntegrationDivergedError

TWO_PI = 2.0 * np.pi
MAX_STEPS_PER_UNIT = 2**16  # rk4_steps refuses a field that needs more RK4 steps per unit time


class KindFacts(NamedTuple):
    phases: int  # how many phases the kind reads
    shears: tuple  # (moved axis, driving axis, phase index) per half period: one if steady, none if no shear
    grad_bound: tuple  # mean gradient norm per unit wA, as a (numerator, denominator) ratio
    constant_along_flow: bool


# kind -> its facts, read by every consumer that branches on them.  A shear's one gradient entry
# 2 pi w A cos(2 pi w s) has mean absolute value 4wA; the cellular norm 2 pi w A (|cos X cos Y| +
# |sin X sin Y|) averages to 16wA/pi, kept as a ratio so that it rounds as 16 w A / pi.
CATALOG = {
    "zero": KindFacts(0, (), (0.0, 1.0), True),
    "constant": KindFacts(1, (), (0.0, 1.0), True),
    "steady_shear": KindFacts(1, ((0, 1, 0),), (4.0, 1.0), True),
    "alternating_shear": KindFacts(2, ((0, 1, 0), (1, 0, 1)), (4.0, 1.0), True),
    "cellular": KindFacts(2, (), (16.0, np.pi), False),
}
FIELD_KINDS = tuple(CATALOG)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class VelocityField:
    """One catalog field, checked when built; evaluation is pure.

    kind is one of ``FIELD_KINDS``.  phases are fractions of a period in
    [0, 1); their meaning depends on kind (direction, shear offset,
    switching-half offsets, or cell offsets), and there are at most
    ``CATALOG[kind].phases`` of them.  Kind, types and ranges are checked on
    construction, so ``render_config`` echoes only what ``parse_config`` reads.

    ``facts`` is its kind's row of ``CATALOG``.  ``time_breakpoints`` lists the
    fractions of the unit period, in [0, 1), at which the closed form switches:
    a kind with two shear halves switches at every integer and half-integer
    time, and the list is empty for steady members.  Between consecutive
    breakpoints the field does not depend on t, which integrators exploit to
    resolve the switching branch unambiguously.

    ``constant_along_flow`` is true when, on each steady piece, the velocity
    and its gradient do not vary along the velocity's own direction.  Points
    moved along the velocity then read the same velocity and gradient,
    bitwise, as the points they started from.  These three are derived once
    per field and are not dataclass fields, so ``asdict`` holds the four
    parameters only.
    """

    kind: str
    amplitude: float = 1.0
    phases: tuple[float, ...] = ()
    wavenumber: int = 1

    def __post_init__(self):
        if self.kind not in CATALOG:
            raise ConfigError(f"unknown field kind {self.kind!r}; valid kinds: {', '.join(FIELD_KINDS)}")
        amplitude, wavenumber = self.amplitude, self.wavenumber
        if not _is_number(amplitude) or not 0 <= amplitude < np.inf:
            raise ConfigError(f"field amplitude must be finite and >= 0, got {amplitude!r}")
        if isinstance(wavenumber, bool) or not isinstance(wavenumber, int) or wavenumber < 1:
            raise ConfigError(f"field wavenumber must be an integer >= 1, got {wavenumber!r}")
        if not isinstance(self.phases, tuple):
            raise ConfigError(f"field phases must be a tuple, got {self.phases!r}")
        limit = CATALOG[self.kind].phases
        if len(self.phases) > limit:
            raise ConfigError(
                f"field kind {self.kind!r} reads at most {limit} phases, got {len(self.phases)}"
            )
        for p in self.phases:
            if not _is_number(p) or not 0.0 <= p < 1.0:
                raise ConfigError(f"field phases must be numbers in [0, 1), got {p!r}")

    @cached_property
    def facts(self):
        return CATALOG[self.kind]

    @cached_property
    def time_breakpoints(self):
        return (0.0, 0.5) if len(self.facts.shears) == 2 else ()

    @cached_property
    def constant_along_flow(self):
        return self.facts.constant_along_flow

    def rk4_steps(self, duration):
        """RK4 steps for a flow over ``duration`` time units: max(256, ceil(50 w A)) per unit.

        That holds a unit map's |log det| of the tangent to 2e-4 up to w A = 60.
        When the field is constant along the flow, each steady piece moves
        points along straight lines at their starting velocity and the
        gradient is nilpotent (G^2 = 0), so one RK4 step is the exact flow
        and tangent; the integrator gives every piece at least one step.
        """
        if self.constant_along_flow:
            return 1
        wa = self.wavenumber * self.amplitude
        per_unit = max(256.0, np.ceil(50.0 * wa))
        if per_unit > MAX_STEPS_PER_UNIT:  # refused before any schedule is built
            raise IntegrationDivergedError(f"w A = {wa:g} needs over {MAX_STEPS_PER_UNIT} RK4 steps per unit time")
        return max(1, int(round(int(per_unit) * abs(duration))))

    def _phase(self, i):
        return self.phases[i] if i < len(self.phases) else 0.0

    def _shear(self, t):
        """(moved axis, driving axis, phase) of the shear acting at time t: the first or the last of
        ``facts.shears``, in the first or the second half of each period.
        """
        moved, driving, index = self.facts.shears[0 if (t % 1.0) < 0.5 else -1]
        return moved, driving, self._phase(index)

    def shear_speed(self, t, points, out=None):
        """(moved axis, its speed A sin(2 pi w (driving + phase))) of a shear member at time t.

        The speed is written into ``out`` (shape ``points.shape[:-1]``) when given.
        """
        moved, driving, phase = self._shear(t)
        out = np.empty(points.shape[:-1]) if out is None else out
        speed = np.add(points[..., driving], phase, out=out)
        speed *= TWO_PI * self.wavenumber
        return moved, np.multiply(np.sin(speed, out=speed), self.amplitude, out=speed)

    def velocity(self, t, points):
        """Velocity b(t, x) for points of shape (..., 2)."""
        points = np.asarray(points, dtype=float)
        amp, w = self.amplitude, self.wavenumber
        out = np.zeros_like(points)
        if self.kind == "zero":
            return out
        if self.kind == "constant":
            angle = TWO_PI * self._phase(0)
            out[..., 0] = amp * np.cos(angle)
            out[..., 1] = amp * np.sin(angle)
            return out
        if self.facts.shears:
            moved, speed = self.shear_speed(t, points)
            out[..., moved] = speed
            return out
        # cellular: b = (d psi/dy, -d psi/dx) for psi ~ sin(2 pi w x) sin(2 pi w y)
        xs = TWO_PI * w * (points[..., 0] + self._phase(0))
        ys = TWO_PI * w * (points[..., 1] + self._phase(1))
        out[..., 0] = amp * np.sin(xs) * np.cos(ys)
        out[..., 1] = -amp * np.cos(xs) * np.sin(ys)
        return out

    def gradient(self, t, points):
        """Exact gradient matrix (d b_i / d x_j) of shape (..., 2, 2)."""
        points = np.asarray(points, dtype=float)
        amp, w = self.amplitude, self.wavenumber
        grad = np.zeros(points.shape[:-1] + (2, 2))
        if self.kind in ("zero", "constant"):
            return grad
        if self.facts.shears:
            moved, driving, phase = self._shear(t)
            grad[..., moved, driving] = TWO_PI * w * amp * np.cos(TWO_PI * w * (points[..., driving] + phase))
            return grad
        xs = TWO_PI * w * (points[..., 0] + self._phase(0))
        ys = TWO_PI * w * (points[..., 1] + self._phase(1))
        c = TWO_PI * w * amp
        cc = c * np.cos(xs) * np.cos(ys)
        ss = c * np.sin(xs) * np.sin(ys)
        grad[..., 0, 0], grad[..., 0, 1], grad[..., 1, 0], grad[..., 1, 1] = cc, -ss, ss, -cc
        return grad


def grad_l1_time_average(field: VelocityField) -> float:
    """Space-time average of the spectral norm of the velocity gradient, in closed form.

    It bounds the top Lyapunov exponent integral from above: the kind's
    ``grad_bound`` per unit wA, times wA.  Phases only shift a period.
    """
    top, bottom = field.facts.grad_bound
    return top * field.wavenumber * field.amplitude / bottom
