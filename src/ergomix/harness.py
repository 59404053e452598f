"""End-to-end experiment runs with machine-readable reports and gates.

Three headline verifications: the entropy/exponent inequality (with the cat
map as the equality witness), exponential decay of the mixing diagnostics
against the exponent integral, and at-most-linear growth of the squared
log-Sobolev norm.  Gates check inequality directions with 3-sigma Monte
Carlo slack; observed ratios involving the theory's non-explicit constants
are reported and regression-baselined, never gated on target values.
"""

import json
import math
import os
import tempfile
from dataclasses import asdict

import numpy as np

from .config import Config
from .diagnostics import (
    DiagnosticSeries,
    Partition,
    entropy_rate,
    h_minus_one,
    h_minus_one_floor,
    log_sobolev,
    mixing_scale,
    nu_log_bound,
    release_scratch,
    scan_radii,
)
from .errors import ConfigError, ErgomixError
from .fields import grad_l1_time_average, make_field
from .lyapunov import ensemble_spectrum, top_exponent_bound_gap
from .maps import make_map
from .scalar import scalar_series
from .seeding import child_seed

RATE_TOLERANCE = 1e-9  # fitted rates this close to zero count as non-negative
GATE_EPSILON = 1e-12  # absolute slack so exact-zero cases survive float dust
STABILITY_FRACTION = 0.2


def _fit_window(times, burn_in):
    """The mask of the times at or after burn_in; at least 4 of them."""
    window = np.asarray(times, dtype=float) >= burn_in
    count = np.count_nonzero(window)
    if count < 4:
        raise ConfigError(
            f"need at least 4 points after burn_in={burn_in}, got {count}; "
            "raise horizon or lower burn_in_fraction"
        )
    return window


def _fit(times, values, log):
    """(Least-squares slope, its standard error) of values, or -log(values), against times."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if log and np.any(values <= 0.0):
        raise ErgomixError("values must be positive for a log-linear rate fit")
    values = -np.log(values) if log else values
    slope = float(np.polyfit(times, values, 1)[0])
    dt = times - times.mean()
    residuals = values - values.mean() - slope * dt
    return slope, float(np.sqrt(np.sum(residuals * residuals) / (len(times) - 2) / np.sum(dt * dt)))


def fit_exponential_rate(times, values, burn_in: float = 0.0) -> float:
    """Least-squares slope of -log(values) against time after burn_in."""
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    window = _fit_window(times, burn_in)
    return _fit(times[window], values[window], log=True)[0]


def _student_t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with integer df >= 2.

    Finite-series closed form of P(|T| < t) (Abramowitz and Stegun 26.7.3
    for odd df, 26.7.4 for even df), exact for integer degrees of freedom.
    """
    theta = math.atan(abs(t) / math.sqrt(df))
    odd = df % 2
    term = total = 1.0
    for k in range(1, (df - odd) // 2):
        term *= math.cos(theta) ** 2 * (2 * k - 1 + odd) / (2 * k + odd)
        total += term
    if odd:
        inside = (2.0 / math.pi) * (theta + math.sin(theta) * math.cos(theta) * total)
    else:
        inside = math.sin(theta) * total
    return (1.0 - inside) / 2.0 if t >= 0 else (1.0 + inside) / 2.0


def growth_trend_pvalue(times, values) -> float:
    """One-sided p-value for a positive linear trend over the whole series.

    Small p-values mean statistically significant growth.  No run gates on
    it: the mixing report carries it for the interpolation ratio, and
    acceptance criterion 09 asserts p >= 0.05 there.  This is the
    least-squares slope t-test with len(values) - 2 degrees of freedom
    (scipy.stats.linregress with alternative="greater"), with the t tail in
    closed form so that no run imports scipy.stats, a large and slow import.
    """
    if len(values) < 4 or np.ptp(values) < 1e-14:
        return 1.0
    slope, stderr = _fit(times, values, log=False)
    t = slope / stderr if stderr > 0.0 else math.copysign(math.inf, slope)  # a perfect line
    return _student_t_sf(t, len(values) - 2)


def _ratio(numerator: float, denominator: float) -> float:
    if abs(denominator) > 1e-12:
        return numerator / denominator
    return 0.0 if abs(numerator) <= 1e-12 else float("inf")


def _build_map(config: Config):
    """The configured map, and the field of a time-one flow map (else None)."""
    field = make_field(config.field) if config.map.kind == "time_one_flow" else None
    return make_map(config.map.kind, field=field), field


def run_lyapunov(config: Config):
    """Ensemble spectrum of the configured map, plus the gradient bound gap."""
    map_, field = _build_map(config)
    report = ensemble_spectrum(map_, config.samples, config.n, child_seed(config.seed, "lyapunov"))
    payload = report.to_json_dict()
    payload["exponent_sum"] = float(np.sum(report.mean_exponents))
    passed = abs(payload["exponent_sum"]) <= 1e-3 * 2  # d = 2 per the incompressible-sum contract
    if field is not None:
        gap = top_exponent_bound_gap(field, report)
        payload["grad_l1_average"] = grad_l1_time_average(field)
        payload["top_exponent_bound_gap"] = gap
        passed = passed and gap >= -3.0 * float(report.stderr[0])
    passed = bool(passed)
    payload["pass"] = passed
    return payload, passed, None


def run_ruelle(config: Config):
    """Entropy-rate vs positive-exponent-sum verification on one map."""
    map_, _ = _build_map(config)
    partition = Partition(config.level)
    estimate, bias_bound, codes = entropy_rate(
        map_, partition, config.n, config.samples, child_seed(config.seed, "entropy")
    )
    nu_value = nu_log_bound(
        map_, partition, config.probes_per_cell, child_seed(config.seed, "nu")
    )
    lyap = ensemble_spectrum(
        map_, config.lyapunov_samples, config.lyapunov_n, child_seed(config.seed, "lyapunov")
    )
    stderr = lyap.sum_positive_stderr()
    passed = bool(estimate - bias_bound <= lyap.sum_positive + 3.0 * stderr + GATE_EPSILON)
    payload = {
        "entropy_estimate": estimate,
        "entropy_bias_bound": bias_bound,
        "sum_positive_exponents": lyap.sum_positive,
        "stderr": stderr,
        "nu_log_bound_value": nu_value,
        "pass": passed,
        "map_kind": config.map.kind,
        "partition_level": config.level,
        "n": config.n,
        "samples": config.samples,
        "entropy_codes": codes,
        "lambda_max_integral": lyap.lambda_max_integral,
        "seed": config.seed,
    }
    return payload, passed, None


def run_mixing(config: Config):
    """Mixing-direction verification at the configured resolution."""
    field = make_field(config.field)
    series = DiagnosticSeries(
        metadata={
            "resolution": config.resolution,
            "kappa": config.kappa,
            "radii": list(scan_radii(config.resolution)),
            "field": asdict(config.field),
            "datum": asdict(config.datum),
        }
    )
    l2_values = []
    c_obs = []  # observed constant in the L2 / H^-1 / log-Sobolev interpolation bound
    for grid in scalar_series(field, config.datum, config.horizon, config.resolution):
        h1 = h_minus_one(grid)
        lsq = log_sobolev(grid)
        mix = mixing_scale(grid, config.kappa)
        series.append(grid.time, h1, lsq, mix)
        l2 = grid.l2_norm()
        l2_values.append(l2)
        c_obs.append(_ratio(float(np.log(2.0 + _ratio(l2, h1))) * l2 * l2, lsq))
        del grid  # free its arrays before the series builds the next grid
    floor = h_minus_one_floor(config.resolution) * config.datum.l2_norm  # reads the warm tables
    release_scratch()  # before the Lyapunov run, which adds numpy.random's pages
    series.metadata["l2_norm"] = l2_values
    burn_in = config.burn_in_fraction * config.horizon
    window = _fit_window(series.times, burn_in)
    columns = (series.times, series.h_minus_one, series.log_sobolev, series.mixing_scale)
    times, h1_window, lsq_window, mix_window = np.array(columns, dtype=float)[:, window]
    beta, beta_stderr = _fit(times, h1_window, log=True)
    lsq_slope, lsq_stderr = _fit(times, lsq_window, log=False)
    mix_rate, mix_stderr = _fit(times, mix_window, log=True)
    lyap = ensemble_spectrum(
        make_map("time_one_flow", field=field),
        config.lyapunov_samples,
        config.lyapunov_n,
        child_seed(config.seed, "lyapunov"),
    )
    ratio_mixing = _ratio(beta, lyap.lambda_max_integral)
    ratio_regularity = _ratio(lsq_slope, lyap.lambda_max_integral)
    passed = bool(
        beta >= -RATE_TOLERANCE
        and lsq_slope >= -RATE_TOLERANCE
        and mix_rate >= -RATE_TOLERANCE
        and np.isfinite(ratio_mixing)
        and np.isfinite(ratio_regularity)
    )
    payload = {
        "series": asdict(series),
        "fitted_h_minus_one_rate": beta,
        "fitted_h_minus_one_rate_stderr": beta_stderr,
        "h_minus_one_floor": floor,
        "h_minus_one_floor_ratio": float(np.min(h1_window)) / floor,
        "fitted_log_sobolev_slope": lsq_slope,
        "fitted_log_sobolev_slope_stderr": lsq_stderr,
        "lambda_max_integral": lyap.lambda_max_integral,
        "grad_l1_average": grad_l1_time_average(field),
        "ratio_mixing": ratio_mixing,
        "ratio_regularity": ratio_regularity,
        "pass_direction": passed,
        "fitted_mixing_scale_rate": mix_rate,
        "fitted_mixing_scale_rate_stderr": mix_stderr,
        "mixing_scale_constant_in_window": bool(np.ptp(mix_window) == 0.0),  # its rate is then roundoff
        "burn_in": burn_in,
        "fit_window": [burn_in, float(config.horizon)],
        "interpolation_ratio": c_obs,
        "interpolation_trend_pvalue": growth_trend_pvalue(series.times, c_obs),
        "lambda_stderr": float(lyap.stderr[0]),
        "seed": config.seed,
    }
    return payload, passed, series


def run_regularity(config: Config):
    """Regularity-slope verification, with a grid-doubling stability check."""
    payload, _, series = run_mixing(config)
    window = _fit_window(series.times, payload["burn_in"])
    values = []  # at the times of the mixing series inside its fit window, which the doubled series shares
    inside = iter(window)  # not zip, whose reused result tuple would hold a grid while the next is built
    for grid in scalar_series(make_field(config.field), config.datum, config.horizon, 2 * config.resolution):
        if next(inside):
            values.append(log_sobolev(grid))
        del grid  # free its arrays before the series builds the next grid
    release_scratch()  # the doubled resolution's workspace, which no later run reads
    slope_double, stderr_double = _fit(np.asarray(series.times)[window], np.asarray(values), log=False)
    slope = payload["fitted_log_sobolev_slope"]
    scale = max(abs(slope), abs(slope_double), 1e-12)
    stable = abs(slope - slope_double) <= STABILITY_FRACTION * scale
    passed = bool(np.isfinite(slope) and slope >= -RATE_TOLERANCE and stable)
    payload["log_sobolev_slope_double_resolution"] = slope_double
    payload["log_sobolev_slope_double_resolution_stderr"] = stderr_double
    payload["slope_stability_fraction"] = abs(slope - slope_double) / scale
    payload["pass_direction"] = passed
    return payload, passed, series


_RUNNERS = {
    "lyapunov": run_lyapunov,
    "ruelle": run_ruelle,
    "mixing": run_mixing,
    "regularity": run_regularity,
}


def run_experiment(config: Config):
    """Dispatch on config.experiment; returns (payload, passed, series or None)."""
    return _RUNNERS[config.experiment](config)


def _write_atomic(text, path):
    """Write text to a temp file in the target directory, then rename it over path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    descriptor, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # mkstemp creates the file 0600; give it the mode open() would give
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(descriptor, 0o666 & ~umask)
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _non_finite_key(value, key=""):
    """The key (dotted, with [i] for list items) of the first non-finite float in value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else key
    if isinstance(value, dict):
        children = ((f"{key}.{k}" if key else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        children = ((f"{key}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    return next(filter(None, (_non_finite_key(v, k) for k, v in children)), None)


# The three public writers only render their text; perfbench/tracer.py wraps
# each of them by name, so none of them calls another.
def write_json_atomic(payload, path):
    """Sorted, 2-space-indented strict JSON (RFC 8259) with a trailing newline.

    A NaN or infinity has no JSON form: it raises ErgomixError naming its key
    (exit 3 from the CLI), and nothing is written.
    """
    key = _non_finite_key(payload)
    if key is not None:
        raise ErgomixError(f"report key {key} is not a finite number, which JSON cannot hold")
    _write_atomic(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", path)


def write_series_csv_atomic(series: DiagnosticSeries, path):
    """CSV with header t,h_minus_one,log_sobolev,mixing_scale."""
    rows = zip(series.times, series.h_minus_one, series.log_sobolev, series.mixing_scale)
    lines = ["t,h_minus_one,log_sobolev,mixing_scale"] + [",".join(repr(v) for v in row) for row in rows]
    _write_atomic("\n".join(lines) + "\n", path)


def write_text_atomic(text, path):
    _write_atomic(text, path)
