"""Catalog of analytic divergence-free velocity fields on the 2-torus.

Every catalog member is 1-periodic in space and time, has an exact closed-form
gradient, and is divergence-free identically (not merely to discretization
error).  Time dependence, where present, is piecewise constant: a field is a
sequence of steady fields switched at the fractions-of-a-period listed in
``VelocityField.time_breakpoints``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * np.pi

# kind -> number of phases the kind reads
PHASES_READ = {"zero": 0, "constant": 1, "steady_shear": 1, "alternating_shear": 2, "cellular": 2}
FIELD_KINDS = tuple(PHASES_READ)
SHEAR_KINDS = ("steady_shear", "alternating_shear")


@dataclass(frozen=True)
class VelocityFieldSpec:
    """Parameters selecting one catalog field.

    kind is one of ``FIELD_KINDS``.  phases are fractions of a period in
    [0, 1); their meaning depends on kind (direction, shear offset,
    switching-half offsets, or cell offsets), and there are at most
    PHASES_READ[kind] of them.  Kind and ranges are checked on construction.
    """

    kind: str
    amplitude: float = 1.0
    phases: tuple = ()
    wavenumber: int = 1

    def __post_init__(self):
        if self.kind not in PHASES_READ:
            raise ConfigError(f"unknown field kind {self.kind!r}; valid kinds: {', '.join(FIELD_KINDS)}")
        if not np.isfinite(self.amplitude) or self.amplitude < 0:
            raise ConfigError(f"field amplitude must be finite and >= 0, got {self.amplitude}")
        if int(self.wavenumber) != self.wavenumber or self.wavenumber < 1:
            raise ConfigError(f"field wavenumber must be an integer >= 1, got {self.wavenumber}")
        limit = PHASES_READ[self.kind]
        if len(self.phases) > limit:
            raise ConfigError(
                f"field kind {self.kind!r} reads at most {limit} phases, got {len(self.phases)}"
            )
        for p in self.phases:
            if not (0.0 <= p < 1.0):
                raise ConfigError(f"field phases must lie in [0, 1), got {p}")


class VelocityField:
    """A catalog field; evaluation is pure.

    ``time_breakpoints`` lists the fractions of the unit period, in [0, 1), at
    which the closed form switches: ``alternating_shear`` switches at every
    integer and half-integer time, and the list is empty for steady members.
    Between consecutive breakpoints the field does not depend on t, which
    integrators exploit to resolve the switching branch unambiguously.

    ``constant_along_flow`` is true when, on each steady piece, the velocity
    and its gradient do not vary along the velocity's own direction: every
    member but ``cellular``.  Points moved along the velocity then read the
    same velocity and gradient, bitwise, as the points they started from.
    """

    def __init__(self, spec: VelocityFieldSpec):
        self.spec = spec
        self.time_breakpoints = (0.0, 0.5) if spec.kind == "alternating_shear" else ()
        self.constant_along_flow = spec.kind != "cellular"

    def rk4_steps(self, duration):
        """RK4 steps for a flow over ``duration`` time units: 256 per unit for cellular.

        When the field is constant along the flow, each steady piece moves
        points along straight lines at their starting velocity and the
        gradient is nilpotent (G^2 = 0), so one RK4 step is the exact flow
        and tangent; the integrator gives every piece at least one step.
        """
        if self.constant_along_flow:
            return 1
        return max(1, int(round(256 * abs(duration))))

    def _phase(self, i):
        return self.spec.phases[i] if i < len(self.spec.phases) else 0.0

    def _shear(self, t):
        """(moved axis, driving axis, phase) of the shear acting at time t.

        The steady shear and the first half of each alternating period move x
        by a sine of y; the second alternating half moves y by a sine of x.
        """
        if self.spec.kind == "steady_shear" or (t % 1.0) < 0.5:
            return 0, 1, self._phase(0)
        return 1, 0, self._phase(1)

    def shear_speed(self, t, points, out=None):
        """(moved axis, its speed A sin(2 pi w (driving + phase))) of a shear member at time t.

        The speed is written into ``out`` (shape ``points.shape[:-1]``) when given.
        """
        moved, driving, phase = self._shear(t)
        out = np.empty(points.shape[:-1]) if out is None else out
        speed = np.add(points[..., driving], phase, out=out)
        speed *= TWO_PI * self.spec.wavenumber
        return moved, np.multiply(np.sin(speed, out=speed), self.spec.amplitude, out=speed)

    def velocity(self, t, points):
        """Velocity b(t, x) for points of shape (..., 2)."""
        points = np.asarray(points, dtype=float)
        spec = self.spec
        amp, w = spec.amplitude, spec.wavenumber
        out = np.zeros_like(points)
        if spec.kind == "zero":
            return out
        if spec.kind == "constant":
            angle = TWO_PI * self._phase(0)
            out[..., 0] = amp * np.cos(angle)
            out[..., 1] = amp * np.sin(angle)
            return out
        if spec.kind in SHEAR_KINDS:
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
        spec = self.spec
        amp, w = spec.amplitude, spec.wavenumber
        grad = np.zeros(points.shape[:-1] + (2, 2))
        if spec.kind in ("zero", "constant"):
            return grad
        if spec.kind in SHEAR_KINDS:
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


def make_field(spec: VelocityFieldSpec) -> VelocityField:
    """Instantiate a catalog field from its spec, which checked its parameters when built."""
    return VelocityField(spec)


def grad_l1_time_average(field: VelocityField) -> float:
    """Space-time average of the spectral norm of the velocity gradient, in closed form.

    It bounds the top Lyapunov exponent integral from above.  A shear's one
    gradient entry 2 pi w A cos(2 pi w s) has mean absolute value 4wA, in
    either half of the alternating period; the cellular norm
    2 pi w A (|cos X cos Y| + |sin X sin Y|) averages to 16wA/pi; ``zero`` and
    ``constant`` have no gradient.  Phases only shift a period.
    """
    spec = field.spec
    if spec.kind in SHEAR_KINDS:
        return 4.0 * spec.wavenumber * spec.amplitude
    if spec.kind == "cellular":
        return 16.0 * spec.wavenumber * spec.amplitude / np.pi
    return 0.0
