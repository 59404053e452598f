import json
import os
import stat
import weakref

import numpy as np
import pytest
from scipy import special, stats

from ergomix import diagnostics, harness, lyapunov, scalar
from ergomix.config import parse_config
from ergomix.diagnostics import h_minus_one, h_minus_one_floor, log_sobolev
from ergomix.errors import ConfigError, ErgomixError
from ergomix.fields import VelocityField, grad_l1_time_average
from ergomix.harness import (
    EXPERIMENTS,
    fit_exponential_rate,
    growth_trend_pvalue,
    run_experiment,
    run_lyapunov,
    run_mixing,
    run_regularity,
    run_ruelle,
    write_json_atomic,
    write_series_csv_atomic,
)
from ergomix.lyapunov import ensemble_spectrum, top_exponent_bound_gap
from ergomix.maps import make_map
from ergomix.scalar import InitialDatum, sample_scalar, scalar_series
from ergomix.seeding import child_seed


def _config(text):
    return parse_config(text)


# --- rate fitting -----------------------------------------------------------


def test_fit_exponential_rate_exact():
    t = np.arange(11.0)
    assert fit_exponential_rate(t, np.exp(-2.0 * t)) == pytest.approx(2.0, abs=1e-12)


def test_fit_exponential_rate_constant():
    t = np.arange(10.0)
    assert fit_exponential_rate(t, np.full(10, 0.3)) == pytest.approx(0.0, abs=1e-14)


def test_fit_exponential_rate_noisy_against_regression_oracle():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 10.0, 50)
    values = np.exp(-t) * (1.0 + 0.01 * rng.standard_normal(50))
    rate = fit_exponential_rate(t, values)
    assert rate == pytest.approx(1.0, abs=0.05)
    oracle = -np.polyfit(t, np.log(values), 1)[0]
    assert rate == pytest.approx(oracle, abs=1e-12)


def test_fit_exponential_rate_errors():
    with pytest.raises(ConfigError, match="at least 4 points"):
        fit_exponential_rate([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
    with pytest.raises(ErgomixError):
        fit_exponential_rate(np.arange(6.0), [1.0, 0.5, 0.2, -0.1, 0.1, 0.1])


def test_fit_exponential_rate_burn_in_window():
    t = np.arange(12.0)
    values = np.concatenate([np.full(4, 5.0), np.exp(-0.5 * np.arange(8.0))])
    rate = fit_exponential_rate(t, values, burn_in=4.0)
    assert rate == pytest.approx(0.5, abs=1e-12)


def test_growth_trend_pvalue_flat_and_growing():
    t = np.arange(20.0)
    assert growth_trend_pvalue(t, np.full(20, 1.3)) == 1.0
    rng = np.random.default_rng(1)
    assert growth_trend_pvalue(t, t + 0.1 * rng.standard_normal(20)) < 0.05
    assert growth_trend_pvalue(t, -t + 0.1 * rng.standard_normal(20)) > 0.5


@pytest.mark.parametrize("length", [4, 5, 6, 7, 12, 21, 40])
def test_growth_trend_pvalue_matches_scipy_linregress(length):
    rng = np.random.default_rng(length)
    t = np.arange(float(length))
    for trend in (-0.3, -0.02, 0.0, 0.02, 0.3, 5.0):
        values = trend * t + rng.standard_normal(length)
        expected = stats.linregress(t, values, alternative="greater").pvalue
        assert growth_trend_pvalue(t, values) == pytest.approx(expected, rel=1e-9, abs=1e-12)


# --- ruelle experiment ------------------------------------------------------


def test_run_ruelle_identity_dynamics():
    config = _config(
        """
experiment = ruelle
seed = 3
n = 4
level = 2
samples = 50000
lyapunov_samples = 30
lyapunov_n = 5

[map]
kind = time_one_flow

[field]
kind = zero
"""
    )
    payload = run_ruelle(config)
    assert payload["entropy_estimate"] == pytest.approx(0.0, abs=1e-12)
    assert payload["sum_positive_exponents"] == 0.0
    assert payload["pass"]


def test_run_ruelle_cat_map():
    config = _config(
        """
experiment = ruelle
seed = 4
n = 8
level = 3
samples = 400000
lyapunov_samples = 100
lyapunov_n = 30

[map]
kind = cat
"""
    )
    payload = run_ruelle(config)
    lam = np.log((3.0 + np.sqrt(5.0)) / 2.0)
    assert payload["pass"]
    assert payload["sum_positive_exponents"] == pytest.approx(lam, abs=1e-9)
    assert abs(payload["entropy_estimate"] - lam) <= 0.15 * lam
    assert payload["nu_log_bound_value"] >= (
        payload["entropy_estimate"] - 2.0 * payload["entropy_bias_bound"]
    )
    for key in (
        "entropy_estimate",
        "entropy_bias_bound",
        "sum_positive_exponents",
        "stderr",
        "nu_log_bound_value",
        "pass",
        "entropy_codes",
    ):
        assert key in payload
    assert 0 < payload["entropy_codes"] <= payload["samples"]
    json.dumps(payload)


def test_run_ruelle_baker_map():
    config = _config(
        """
experiment = ruelle
seed = 5
n = 8
level = 4
samples = 200000
lyapunov_samples = 100
lyapunov_n = 20

[map]
kind = baker
"""
    )
    payload = run_ruelle(config)
    assert payload["pass"]
    assert abs(payload["entropy_estimate"] - np.log(2.0)) <= 0.15 * np.log(2.0)
    assert payload["sum_positive_exponents"] == pytest.approx(np.log(2.0), abs=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 6: at level 2 the fixed depth range sits where the plug-in entropy overshoots h",
)
def test_shipped_cat_map_passes_the_entropy_gate_at_level_two():
    # entropy 1.0060 with bias bound 0.0072 against the exact exponent sum log((3 + sqrt 5)/2) = 0.9624
    with open(os.path.join(os.path.dirname(__file__), "..", "configs", "ruelle_cat.cfg")) as handle:
        config = parse_config(handle.read(), overrides=["level=2"])
    assert run_ruelle(config)["pass"]


def test_fast_cellular_flow_passes_the_exponent_sum_gate():
    # at 256 steps per unit time, amplitude 40 read a unit map's largest |log det| 2.8 on 200 points,
    # and the exponent sum -0.474; rk4_steps gives it 50 w A = 2000
    config = _config(
        """
experiment = lyapunov
seed = 1
n = 2
samples = 20

[map]
kind = time_one_flow

[field]
kind = cellular
amplitude = 40.0
"""
    )
    assert run_lyapunov(config)["pass"]


def test_lyapunov_run_evaluates_the_gradient_bound_once(monkeypatch):
    # the gap is the bound it reports minus the exponent integral, bitwise top_exponent_bound_gap's
    config = _config(
        """
experiment = lyapunov
seed = 3
n = 20
samples = 40

[map]
kind = time_one_flow

[field]
kind = alternating_shear
amplitude = 1.0
"""
    )
    calls = []

    def counting(field):
        calls.append(field)
        return grad_l1_time_average(field)

    # both modules that read the bound count: top_exponent_bound_gap reads it in lyapunov
    monkeypatch.setattr(harness, "grad_l1_time_average", counting)
    monkeypatch.setattr(lyapunov, "grad_l1_time_average", counting)
    payload = run_lyapunov(config)
    assert calls == [config.field]
    monkeypatch.undo()
    report = ensemble_spectrum(make_map("time_one_flow", field=config.field), 40, 20, child_seed(3, "lyapunov"))
    expected = report.to_json_dict()
    expected["exponent_sum"] = float(np.sum(report.mean_exponents))
    expected["grad_l1_average"] = grad_l1_time_average(config.field)
    expected["top_exponent_bound_gap"] = top_exponent_bound_gap(config.field, report)
    expected["pass"] = True
    assert list(payload) == list(expected) and payload == expected


# --- mixing / regularity experiments ----------------------------------------

ZERO_MIXING = """
experiment = mixing
seed = 6
horizon = 6
resolution = 64
lyapunov_samples = 20
lyapunov_n = 5

[field]
kind = zero

[datum]
kind = sinusoid
wavevector = 1, 0
"""


def test_run_mixing_zero_field_is_flat():
    payload = run_mixing(_config(ZERO_MIXING))
    assert payload["fitted_h_minus_one_rate"] == pytest.approx(0.0, abs=1e-9)
    assert payload["fitted_log_sobolev_slope"] == pytest.approx(0.0, abs=1e-9)
    assert payload["lambda_max_integral"] == 0.0
    assert payload["ratio_mixing"] == 0.0
    assert payload["ratio_regularity"] == 0.0
    assert payload["mixing_scale_constant_in_window"] is True
    assert payload["pass_direction"]
    json.dumps(payload)


def test_run_regularity_zero_field():
    config = _config(ZERO_MIXING.replace("experiment = mixing", "experiment = regularity"))
    payload = run_regularity(config)
    assert payload["fitted_log_sobolev_slope"] == pytest.approx(0.0, abs=1e-9)
    assert payload["log_sobolev_slope_double_resolution"] == pytest.approx(0.0, abs=1e-9)
    assert payload["pass_direction"]


def test_run_regularity_frees_its_doubled_workspace():
    run_regularity(_config(ZERO_MIXING.replace("experiment = mixing", "experiment = regularity")))
    assert diagnostics._workspace.cache_info().currsize == 0


def test_series_consumers_hold_one_grid_at_a_time(monkeypatch):
    # a grid is dropped before the series builds the next one, at N and at 2N
    built = {64: [], 128: []}
    most = {64: 0, 128: 0}

    class Tracked(scalar.GridField):
        def __init__(self, resolution, *args):
            super().__init__(resolution, *args)
            built[resolution].append(weakref.ref(self))
            most[resolution] = max(most[resolution], sum(ref() is not None for ref in built[resolution]))

    monkeypatch.setattr(scalar, "GridField", Tracked)
    config = _config(ZERO_MIXING.replace("experiment = mixing", "experiment = regularity"))
    run_regularity(config)
    assert [len(built[n]) for n in (64, 128)] == [config.horizon + 1] * 2
    assert most == {64: 1, 128: 1}


def test_regularity_takes_log_sobolev_only_inside_the_fit_window(monkeypatch):
    resolutions = []
    monkeypatch.setattr(harness, "log_sobolev", lambda grid: resolutions.append(grid.resolution) or 1.0)
    config = _config(ZERO_MIXING.replace("experiment = mixing", "experiment = regularity"))
    run_regularity(config)
    inside = sum(t >= config.burn_in_fraction * config.horizon for t in range(config.horizon + 1))
    assert inside < config.horizon + 1
    assert resolutions.count(64) == config.horizon + 1 and resolutions.count(128) == inside


@pytest.mark.parametrize("runner", [run_mixing, run_regularity])
def test_short_fit_window_fails_before_any_grid(monkeypatch, runner):
    # the window reads only the times 0..horizon and the burn-in, so no grid is built for a window of 3 points
    def no_series(*args):
        raise AssertionError("the grid series started")

    monkeypatch.setattr(harness, "scalar_series", no_series)
    config = _config(ZERO_MIXING.replace("horizon = 6", "horizon = 20\nburn_in_fraction = 0.9"))
    with pytest.raises(ConfigError, match=r"need at least 4 points after burn_in=18.0, got 3"):
        runner(config)


def test_steady_shear_h_minus_one_matches_bessel_oracle():
    # closed-form transported sinusoid: rho(t) = sin(2 pi (x - t sin 2 pi y));
    # its Fourier mass sits at k = (+-1, m) with |rho_hat| = |J_m(2 pi t)| / 2
    field = VelocityField(kind="steady_shear", amplitude=1.0)
    datum = InitialDatum("sinusoid", wavevector=(1, 0))
    for t in (1.0, 2.0, 5.0):
        grid = sample_scalar(field, datum, t, 256)
        ms = np.arange(-80, 81)
        oracle = np.sqrt(np.sum(special.jv(ms, 2 * np.pi * t) ** 2 / (2.0 * (1.0 + ms**2))))
        assert h_minus_one(grid) == pytest.approx(oracle, rel=1e-3)


def test_steady_shear_mixing_rates_are_sublinear():
    config = _config(
        """
experiment = mixing
seed = 7
horizon = 10
resolution = 128
lyapunov_samples = 50
lyapunov_n = 50

[field]
kind = steady_shear

[datum]
kind = sinusoid
wavevector = 1, 0
"""
    )
    payload = run_mixing(config)
    # polynomial H^-1 decay: positive but small fitted exponential rate
    assert 0.0 < payload["fitted_h_minus_one_rate"] < 0.5
    assert payload["lambda_max_integral"] <= 0.12
    assert payload["pass_direction"]
    # each fit's standard error is linregress's, on the fit window and the values the fit reads
    series = payload["series"]
    window = np.asarray(series["times"]) >= payload["burn_in"]
    times = np.asarray(series["times"])[window]
    for key, column, transform in [
        ("fitted_h_minus_one_rate", "h_minus_one", lambda v: -np.log(v)),
        ("fitted_log_sobolev_slope", "log_sobolev", lambda v: v),
        ("fitted_mixing_scale_rate", "mixing_scale", lambda v: -np.log(v)),
    ]:
        oracle = stats.linregress(times, transform(np.asarray(series[column])[window]))
        assert payload[key] == pytest.approx(oracle.slope, rel=1e-9, abs=1e-15)
        assert payload[key + "_stderr"] == pytest.approx(oracle.stderr, rel=1e-9, abs=1e-15)
    assert payload["mixing_scale_constant_in_window"] is False  # 0.2 down to 0.1 in the window


def test_regularity_trust_qualifiers():
    config = _config(
        """
experiment = regularity
seed = 7
horizon = 8
resolution = 64
lyapunov_samples = 20
lyapunov_n = 20

[field]
kind = steady_shear

[datum]
kind = sinusoid
wavevector = 1, 0
"""
    )
    payload = run_regularity(config)
    # the floor scales with the datum's L2 norm (1/sqrt 2 here); the ratio reads the fit window
    assert payload["h_minus_one_floor"] == h_minus_one_floor(64) * config.datum.l2_norm
    series = payload["series"]
    window = np.asarray(series["times"]) >= payload["burn_in"]
    lowest = np.min(np.asarray(series["h_minus_one"])[window])
    assert payload["h_minus_one_floor_ratio"] == lowest / payload["h_minus_one_floor"]
    # the doubled-resolution slope and its standard error are linregress's on the 2N series
    grids = scalar_series(config.field, config.datum, config.horizon, 128)
    times, values = (np.asarray(v) for v in zip(*[(grid.time, log_sobolev(grid)) for grid in grids]))
    window = times >= payload["burn_in"]
    oracle = stats.linregress(times[window], values[window])
    assert payload["log_sobolev_slope_double_resolution"] == pytest.approx(oracle.slope, rel=1e-9)
    assert payload["log_sobolev_slope_double_resolution_stderr"] == pytest.approx(oracle.stderr, rel=1e-9)


def test_ruelle_determinism_same_seed():
    config = _config(
        """
experiment = ruelle
seed = 9
n = 6
level = 3
samples = 50000
lyapunov_samples = 40
lyapunov_n = 10

[map]
kind = baker
"""
    )
    a = json.dumps(run_ruelle(config), sort_keys=True)
    b = json.dumps(run_ruelle(config), sort_keys=True)
    assert a == b


_LYAPUNOV_KEYS = {
    "exponent_sum",
    "grad_l1_average",
    "lambda_max_integral",
    "mean_exponents",
    "n",
    "pass",
    "per_sample_exponents",
    "sample_count",
    "skipped_samples",
    "stderr",
    "sum_positive",
    "top_exponent_bound_gap",
}
_RUELLE_KEYS = {
    "entropy_bias_bound",
    "entropy_codes",
    "entropy_estimate",
    "lambda_max_integral",
    "map_kind",
    "n",
    "nu_log_bound_value",
    "partition_level",
    "pass",
    "samples",
    "seed",
    "stderr",
    "sum_positive_exponents",
}
_MIXING_KEYS = {
    "burn_in",
    "fit_window",
    "fitted_h_minus_one_rate",
    "fitted_h_minus_one_rate_stderr",
    "fitted_log_sobolev_slope",
    "fitted_log_sobolev_slope_stderr",
    "fitted_mixing_scale_rate",
    "fitted_mixing_scale_rate_stderr",
    "grad_l1_average",
    "h_minus_one_floor",
    "h_minus_one_floor_ratio",
    "interpolation_ratio",
    "interpolation_trend_pvalue",
    "lambda_max_integral",
    "lambda_stderr",
    "mixing_scale_constant_in_window",
    "pass_direction",
    "ratio_mixing",
    "ratio_regularity",
    "seed",
    "series",
}
_REGULARITY_KEYS = _MIXING_KEYS | {
    "log_sobolev_slope_double_resolution",
    "log_sobolev_slope_double_resolution_stderr",
    "slope_stability_fraction",
}

_SMALL_LYAPUNOV = """
experiment = lyapunov
seed = 15
n = 2
samples = 20

[map]
kind = time_one_flow

[field]
kind = steady_shear
"""

_SMALL_RUELLE = """
experiment = ruelle
seed = 16
n = 4
level = 2
samples = 20000
lyapunov_samples = 10
lyapunov_n = 5

[map]
kind = baker
"""


@pytest.mark.parametrize(
    "text, keys",
    [
        (_SMALL_LYAPUNOV, _LYAPUNOV_KEYS),
        (_SMALL_RUELLE, _RUELLE_KEYS),
        (ZERO_MIXING, _MIXING_KEYS),
        (ZERO_MIXING.replace("experiment = mixing", "experiment = regularity"), _REGULARITY_KEYS),
    ],
    ids=["lyapunov", "ruelle", "mixing", "regularity"],
)
def test_report_top_level_keys(text, keys):
    config = _config(text)
    report = run_experiment(config)
    assert set(report) == keys
    assert type(report[EXPERIMENTS[config.experiment].gate]) is bool
    assert ("series" in report) == (config.experiment in ("mixing", "regularity"))
    json.dumps(report)


def test_write_json_atomic_leaves_no_partial_file(tmp_path):
    target = tmp_path / "report.json"
    with pytest.raises(TypeError):
        write_json_atomic({"bad": object()}, str(target))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []
    write_json_atomic({"ok": 1}, str(target))
    assert json.loads(target.read_text()) == {"ok": 1}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_json_atomic_is_strict_and_names_the_key(tmp_path, bad):
    target = tmp_path / "report.json"
    with pytest.raises(ErgomixError, match=r"^report key series\.h_minus_one\[1\] is not a finite number"):
        write_json_atomic({"ok": 1.0, "series": {"h_minus_one": [0.5, bad]}}, str(target))
    assert list(tmp_path.iterdir()) == []


def test_write_series_csv_atomic_text(tmp_path):
    # a report's series: its four columns, and metadata that the CSV leaves out
    series = {
        "times": [0.0, 1.0],
        "h_minus_one": [0.5, 0.1],
        "log_sobolev": [1.25, 2.0],
        "mixing_scale": [0.5, 0.125],
        "metadata": {"resolution": 16},
    }
    target = tmp_path / "series.csv"
    write_series_csv_atomic(series, str(target))
    assert target.read_text() == (
        "t,h_minus_one,log_sobolev,mixing_scale\n0.0,0.5,1.25,0.5\n1.0,0.1,2.0,0.125\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["series.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_write_json_atomic_gives_the_mode_open_would(tmp_path, umask, mode):
    target = tmp_path / "report.json"
    previous = os.umask(umask)
    try:
        write_json_atomic({"ok": 1}, str(target))
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == mode
