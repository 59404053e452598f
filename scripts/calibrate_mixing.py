#!/usr/bin/env python3
"""Amplitude sweep for the alternating-shear mixing study.

For each amplitude: the exponent integral, the fitted H^-1 decay rate, the
final H^-1 level, and whether the series decreases strictly after burn-in.
Used to pick stirring strengths where the decay spans the horizon instead of
bottoming out on the grid sampling floor (the fixed-phase protocol also
carries island oscillations that show up as up-ticks at too-strong or
too-weak stirring).

Usage: python scripts/calibrate_mixing.py [resolution] [horizon]
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ergomix.diagnostics import h_minus_one  # noqa: E402
from ergomix.fields import VelocityFieldSpec, make_field  # noqa: E402
from ergomix.harness import fit_exponential_rate  # noqa: E402
from ergomix.lyapunov import ensemble_spectrum  # noqa: E402
from ergomix.maps import TimeOneFlowMap  # noqa: E402
from ergomix.scalar import make_initial, scalar_series  # noqa: E402

AMPLITUDES = (0.35, 0.45, 0.65, 0.8, 0.95, 1.05, 1.25)
PHASES = (0.13, 0.41)


def sweep(resolution=256, horizon=20):
    datum = make_initial("checkerboard", level=2)
    burn_in = 0.2 * horizon
    print(f"resolution={resolution} horizon={horizon} phases={PHASES}")
    print("amp   lambda   beta     h1(end)  strict_decrease")
    for amp in AMPLITUDES:
        spec = VelocityFieldSpec(kind="alternating_shear", amplitude=amp, phases=PHASES)
        field = make_field(spec)
        h1 = [h_minus_one(grid) for grid in scalar_series(field, datum, horizon, resolution)]
        times = np.arange(horizon + 1.0)
        beta = fit_exponential_rate(times, h1, burn_in)
        lam = ensemble_spectrum(TimeOneFlowMap(field), 300, 100, seed=5).lambda_max_integral
        tail = np.array(h1)[times >= burn_in]
        strict = bool(np.all(np.diff(tail) < 0))
        print(f"{amp:<5} {lam:<8.4f} {beta:<8.4f} {h1[-1]:<8.4f} {strict}")


if __name__ == "__main__":
    resolution = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    horizon = int(sys.argv[2]) if len(sys.argv) > 2 else 20
    sweep(resolution, horizon)
