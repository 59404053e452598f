"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The mixing/regularity criteria share one pair of diagnostic series
(resolutions 512 and 1024) built once per session.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

import ergomix as em
from ergomix.config import parse_config
from ergomix.diagnostics import (
    Partition,
    h_minus_one,
    log_sobolev,
    log_sobolev_brute_force,
    maximal_ergodic,
)
from ergomix.fields import VelocityFieldSpec, grad_l1_time_average, make_field
from ergomix.flow import advect_cocycle
from ergomix.harness import (
    fit_exponential_rate,
    growth_trend_pvalue,
    run_mixing,
    run_ruelle,
)
from ergomix.lyapunov import ensemble_spectrum, finite_time_spectrum, top_exponent_bound_gap
from ergomix.maps import TimeOneFlowMap, make_map
from ergomix.scalar import grid_nodes, make_initial, sample_scalar, scalar_series
from ergomix.cli import main

CAT_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)

MIXING_CONFIG_TEXT = """
experiment = mixing
seed = 20260809
horizon = 20
resolution = 512
lyapunov_samples = 300
lyapunov_n = 100

[field]
kind = alternating_shear
amplitude = 0.95
phases = 0.13, 0.41

[datum]
kind = checkerboard
level = 2
"""


class _Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.criterion:02d}] {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.criterion} exceeded its {self.seconds}s budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_01_cat_map_ground_truth():
    with _Budget(1, 1.0):
        exps = finite_time_spectrum(make_map("cat"), np.array([0.2, 0.7]), 30)
        assert abs(exps[0] - CAT_LAMBDA) <= 1e-9
        assert abs(exps[1] + CAT_LAMBDA) <= 1e-9


def test_criterion_02_ruelle_and_pesin_on_cat_map():
    with _Budget(2, 60.0):
        config = parse_config(
            """
experiment = ruelle
seed = 101
n = 8
level = 4
samples = 1000000
lyapunov_samples = 100
lyapunov_n = 30

[map]
kind = cat
"""
        )
        payload, passed, _ = run_ruelle(config)
        slack = payload["sum_positive_exponents"] + 3.0 * payload["stderr"] + 1e-12
        assert payload["entropy_estimate"] - payload["entropy_bias_bound"] <= slack
        assert passed
        assert abs(payload["entropy_estimate"] - payload["sum_positive_exponents"]) <= (
            0.15 * payload["sum_positive_exponents"]
        )


def test_criterion_03_baker_map():
    with _Budget(3, 60.0):
        exps = finite_time_spectrum(make_map("baker"), np.array([0.231, 0.717]), 20)
        assert abs(exps[0] - math.log(2.0)) <= 1e-9
        assert abs(exps[1] + math.log(2.0)) <= 1e-9
        config = parse_config(
            """
experiment = ruelle
seed = 102
n = 8
level = 4
samples = 200000
lyapunov_samples = 100
lyapunov_n = 20

[map]
kind = baker
"""
        )
        payload, passed, _ = run_ruelle(config)
        assert passed
        assert abs(payload["entropy_estimate"] - math.log(2.0)) <= 0.15 * math.log(2.0)


def test_criterion_04_top_exponent_bound_across_catalog():
    cases = [
        (VelocityFieldSpec(kind="zero"), 10),
        (VelocityFieldSpec(kind="constant", amplitude=1.0), 10),
        (VelocityFieldSpec(kind="steady_shear", amplitude=1.0), 200),
        (VelocityFieldSpec(kind="alternating_shear", amplitude=1.0), 60),
        (VelocityFieldSpec(kind="cellular", amplitude=1.0), 60),
    ]
    with _Budget(4, 120.0):
        for spec, n in cases:
            field = make_field(spec)
            report = ensemble_spectrum(TimeOneFlowMap(field), 200, n, seed=103)
            gap = top_exponent_bound_gap(field, report)
            assert gap >= -3.0 * float(report.stderr[0]), spec.kind
            if spec.kind == "steady_shear":
                assert abs(grad_l1_time_average(field) - 4.0) <= 1e-3
                assert report.lambda_max_integral <= 0.05


def test_criterion_05_volume_preservation():
    # raw determinants are float64-verifiable while |W| stays below ~3e4, so
    # the hyperbolic alternating case runs at amplitude 0.5; the exponent sum
    # covers volume preservation in log space for the amplitude-1 case
    det_cases = [
        VelocityFieldSpec(kind="zero"),
        VelocityFieldSpec(kind="constant", amplitude=1.0),
        VelocityFieldSpec(kind="steady_shear", amplitude=1.0),
        VelocityFieldSpec(kind="alternating_shear", amplitude=0.5),
        VelocityFieldSpec(kind="cellular", amplitude=1.0),
    ]
    with _Budget(5, 60.0):
        rng = np.random.default_rng(104)
        pts = rng.random((1000, 2))
        for spec in det_cases:
            field = make_field(spec)
            _, tangent = advect_cocycle(field, pts, 0.0, 10.0, 2560)
            assert np.max(np.abs(np.linalg.det(tangent) - 1.0)) <= 1e-6, spec.kind
        for spec in det_cases + [VelocityFieldSpec(kind="alternating_shear", amplitude=1.0)]:
            mapping = TimeOneFlowMap(make_field(spec))
            report = ensemble_spectrum(mapping, 200, 10, seed=105)
            sums = np.sum(report.per_sample_exponents, axis=1)
            assert np.max(np.abs(sums)) <= 1e-3, spec.kind


def test_criterion_06_h_minus_one_fourier_values():
    with _Budget(6, 5.0):
        nodes = grid_nodes(256)
        from ergomix.scalar import GridField

        one = GridField(256, np.sin(2 * np.pi * nodes[..., 0]), 0.0, {})
        two = GridField(256, np.sin(4 * np.pi * nodes[..., 0]), 0.0, {})
        assert abs(h_minus_one(one) - 0.70711) <= 1e-5 + 3e-6
        assert abs(h_minus_one(one) - 1.0 / np.sqrt(2.0)) <= 1e-6
        assert abs(h_minus_one(two) - np.sqrt(0.5) / 2.0) <= 1e-6


def test_criterion_07_log_sobolev_versus_brute_force():
    zero = make_field(VelocityFieldSpec(kind="zero"))
    stirred = make_field(VelocityFieldSpec(kind="alternating_shear", amplitude=1.0))
    grids = [
        sample_scalar(zero, make_initial("sinusoid", wavevector=(1, 0)), 0.0, 64),
        sample_scalar(zero, make_initial("checkerboard", level=1), 0.0, 64),
        sample_scalar(stirred, make_initial("checkerboard", level=2), 2.0, 64),
        sample_scalar(stirred, make_initial("checkerboard", level=2), 2.0, 63),
    ]
    with _Budget(7, 120.0):
        for grid in grids:
            exact = log_sobolev_brute_force(grid)
            assert abs(log_sobolev(grid) - exact) <= 1e-12 * exact


@pytest.fixture(scope="module")
def mixing_runs():
    start = time.perf_counter()
    config = parse_config(MIXING_CONFIG_TEXT)
    payload, _, series = run_mixing(config)
    # criterion 08 reads only H^-1 from the doubled-resolution series
    grids = scalar_series(make_field(config.field), config.datum, config.horizon, 1024)
    h1_double = tuple(zip(*[(grid.time, h_minus_one(grid)) for grid in grids]))
    return config, payload, series, h1_double, time.perf_counter() - start


def test_criterion_08_mixing_direction(mixing_runs):
    config, payload, series, h1_double, shared_elapsed = mixing_runs
    # the shared 512/1024 series computation counts against this budget
    assert shared_elapsed < 600.0
    print(f"[criterion 08] shared series runtime {shared_elapsed:.1f}s")
    with _Budget(8, 600.0 - shared_elapsed):
        burn_in = config.burn_in_fraction * config.horizon
        times = np.array(series.times)
        h1 = np.array(series.h_minus_one)
        window = times >= burn_in
        assert np.all(np.diff(h1[window]) < 0.0), "H^-1 not strictly decreasing after burn-in"
        beta = payload["fitted_h_minus_one_rate"]
        assert beta > 0.0
        assert np.isfinite(payload["ratio_mixing"])
        beta_double = fit_exponential_rate(*h1_double, burn_in)
        lam = payload["lambda_max_integral"]
        ratio, ratio_double = beta / lam, beta_double / lam
        assert abs(ratio - ratio_double) <= 0.2 * max(abs(ratio), abs(ratio_double))
        mix = np.array(series.mixing_scale)
        assert np.all(np.diff(mix[window]) <= 0.0), "mixing scale increased after burn-in"


def test_criterion_09_regularity_slope(mixing_runs):
    # runtime shared with criterion 8
    with _Budget(9, 600.0):
        _, payload, series, _, _ = mixing_runs
        slope = payload["fitted_log_sobolev_slope"]
        assert np.isfinite(slope)
        trend_p = growth_trend_pvalue(series.times, payload["interpolation_ratio"])
        assert trend_p >= 0.05, f"interpolation ratio grows significantly (p={trend_p:.4f})"


def test_criterion_10_maximal_ergodic_weak_l1():
    with _Budget(10, 30.0):

        def quarter_square(points):
            return ((points[..., 0] < 0.5) & (points[..., 1] < 0.5)).astype(float)

        rng = np.random.default_rng(107)
        pts = rng.random((10_000, 2))
        star = maximal_ergodic(make_map("cat"), quarter_square, pts, 64)
        for lam in (0.3, 0.5, 0.8):
            assert np.mean(star > lam) <= 0.25 / lam


def test_criterion_11_bitwise_determinism(tmp_path):
    with _Budget(11, 300.0):
        config_text = """
experiment = mixing
seed = 108
horizon = 6
resolution = 128
lyapunov_samples = 50
lyapunov_n = 10
output_dir = {out}

[field]
kind = alternating_shear
amplitude = 0.95
phases = 0.13, 0.41

[datum]
kind = checkerboard
level = 2
"""
        outputs = []
        for label in ("a", "b"):
            out = tmp_path / label
            path = tmp_path / f"{label}.cfg"
            path.write_text(config_text.format(out=out))
            assert main(["run", str(path)]) == 0
            outputs.append(
                ((out / "mixing_report.json").read_bytes(), (out / "mixing_series.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

        ruelle_text = """
experiment = ruelle
seed = 109
n = 6
level = 3
samples = 100000
lyapunov_samples = 50
lyapunov_n = 10
output_dir = {out}

[map]
kind = baker
"""
        reports = []
        for label in ("r1", "r2"):
            out = tmp_path / label
            path = tmp_path / f"{label}.cfg"
            path.write_text(ruelle_text.format(out=out))
            assert main(["run", str(path)]) == 0
            reports.append((out / "ruelle_report.json").read_bytes())
        assert reports[0] == reports[1]
