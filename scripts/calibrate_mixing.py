#!/usr/bin/env python3
"""Amplitude sweep for the alternating-shear mixing study.

Runs ``harness.run_mixing`` on configs/mixing_alternating.cfg once per
amplitude, with ``field.amplitude`` overridden (and ``resolution`` and
``horizon`` when given; by default the config's own, 512 and 20), and prints
from each report the exponent integral, the fitted H^-1 decay rate, the last
H^-1 and whether H^-1 decreases strictly after burn-in.  Used to pick
stirring strengths where the decay spans the horizon instead of bottoming
out on the grid sampling floor (the fixed-phase protocol also carries island
oscillations that show up as up-ticks at too-strong or too-weak stirring).

Usage: python scripts/calibrate_mixing.py [resolution] [horizon]
"""

import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ergomix.config import parse_config  # noqa: E402
from ergomix.harness import run_mixing  # noqa: E402

CONFIG = ROOT / "configs" / "mixing_alternating.cfg"
AMPLITUDES = (0.35, 0.45, 0.65, 0.8, 0.95, 1.05, 1.25)


def sweep(resolution=None, horizon=None):
    """Yield (amplitude, lambda_max_integral, H^-1 rate, last H^-1, strict decrease) per amplitude.

    A resolution or horizon left at None keeps the config's own.
    """
    text = CONFIG.read_text()
    sizes = [f"{key}={value}" for key, value in (("resolution", resolution), ("horizon", horizon)) if value is not None]
    for amp in AMPLITUDES:
        payload = run_mixing(parse_config(text, overrides=[f"field.amplitude={amp}"] + sizes))[0]
        series = payload["series"]
        tail = np.array(series["h_minus_one"])[np.array(series["times"]) >= payload["burn_in"]]
        strict = bool(np.all(np.diff(tail) < 0))
        yield amp, payload["lambda_max_integral"], payload["fitted_h_minus_one_rate"], tail[-1], strict


if __name__ == "__main__":
    config = parse_config(CONFIG.read_text())
    resolution = int(sys.argv[1]) if len(sys.argv) > 1 else config.resolution
    horizon = int(sys.argv[2]) if len(sys.argv) > 2 else config.horizon
    print(f"resolution={resolution} horizon={horizon} config={CONFIG.relative_to(ROOT)}")
    print("amp   lambda   beta     h1(end)  strict_decrease")
    for amp, lam, beta, h1_end, strict in sweep(resolution, horizon):
        print(f"{amp:<5} {lam:<8.4f} {beta:<8.4f} {h1_end:<8.4f} {strict}")
