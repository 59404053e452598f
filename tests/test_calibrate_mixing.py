"""The amplitude sweep of scripts/calibrate_mixing.py runs and gives one finite row per amplitude."""

import importlib.util
import math
import os

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "calibrate_mixing.py")


def test_sweep_gives_one_finite_row_per_amplitude():
    spec = importlib.util.spec_from_file_location("calibrate_mixing", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = list(script.sweep(resolution=32, horizon=6))
    assert [row[0] for row in rows] == list(script.AMPLITUDES)
    for amp, lam, beta, h1_end, strict in rows:
        assert all(math.isfinite(value) for value in (lam, beta, h1_end)) and h1_end > 0.0
        assert isinstance(strict, bool)
