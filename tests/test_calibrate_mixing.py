"""The amplitude sweep of scripts/calibrate_mixing.py runs and gives one finite row per amplitude."""

import importlib.util
import math
import os

from ergomix.config import parse_config

_SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "calibrate_mixing.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate_mixing", _SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sweep_gives_one_finite_row_per_amplitude():
    script = _load_script()
    rows = list(script.sweep(resolution=32, horizon=6))
    assert [row[0] for row in rows] == list(script.AMPLITUDES)
    for amp, lam, beta, h1_end, strict in rows:
        assert all(math.isfinite(value) for value in (lam, beta, h1_end)) and h1_end > 0.0
        assert isinstance(strict, bool)


def test_default_sweep_runs_at_the_configs_own_size(monkeypatch):
    script = _load_script()
    config = parse_config(script.CONFIG.read_text())
    seen = []

    def recording_run_mixing(run_config):
        seen.append((run_config.field.amplitude, run_config.resolution, run_config.horizon))
        series = {"times": [0.0, 1.0], "h_minus_one": [1.0, 0.5]}
        payload = {"series": series, "burn_in": 0.0, "lambda_max_integral": 1.0, "fitted_h_minus_one_rate": 0.7}
        return payload, True, None

    monkeypatch.setattr(script, "run_mixing", recording_run_mixing)
    assert len(list(script.sweep())) == len(script.AMPLITUDES)
    assert seen == [(amp, config.resolution, config.horizon) for amp in script.AMPLITUDES]
    assert (config.resolution, config.horizon) == (512, 20)
    seen.clear()
    list(script.sweep(horizon=6))
    assert {(resolution, horizon) for _, resolution, horizon in seen} == {(config.resolution, 6)}
