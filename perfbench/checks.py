"""Output checks for one benchmark run.

A run passes when its report parses, the resolved config carries the workload
seed, the series CSV (if any) repeats the report's series, and every headline
number agrees with its target within a tolerance derived from that number's
own stated uncertainty:

- ruelle_cat: ``entropy_estimate`` and ``sum_positive_exponents`` against the
  closed form log((3 + sqrt 5) / 2), within the report's
  ``entropy_bias_bound`` and Z x ``stderr`` respectively;
- mixing_alternating: ``lambda_max_integral`` against the reference run,
  within Z x the pooled standard error of the two ensembles (it depends on
  the seed);
- ``grad_l1_average`` against the closed form 4 x amplitude of the
  alternating shear, at least as exactly as the reference quadrature;
- the fitted H^-1 and mixing-scale rates (seed independent) against the
  reference, within Z x the least-squares standard error of the slope over
  the report's own fit window;
- the log-Sobolev slope against the reference, within 5% of each of the two
  slopes: the tolerance acceptance criterion 07 grants each sampled
  log-Sobolev value against the exact one, applied to the fitted slope.

An estimator at least as exact as the current one (for example an exact
log-Sobolev norm) stays inside these tolerances.  Reference values are
recorded in ``reference.json`` by ``record.py``; the value, target and
tolerance of every checked number are kept with each run's result.
"""

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

CAT_ENTROPY = math.log((3.0 + math.sqrt(5.0)) / 2.0)
Z = 4.0  # standard errors allowed; ~6e-5 two-sided false-alarm rate per number
FLOAT_SLACK = 1e-12  # float64 dust, as the harness's own gate epsilon
LOG_SOBOLEV_REL_TOL = 0.05  # sampled log-Sobolev estimator against the exact one (criterion 07)

REPORTS = {
    "ruelle_cat": "ruelle_report.json",
    "mixing_alternating": "mixing_report.json",
}


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def slope_stderr(times, values):
    """Standard error of the least-squares slope of values against times."""
    m = len(times)
    t_mean = sum(times) / m
    v_mean = sum(values) / m
    sxx = sum((t - t_mean) ** 2 for t in times)
    slope = sum((t - t_mean) * v for t, v in zip(times, values)) / sxx
    residuals = [v - v_mean - slope * (t - t_mean) for t, v in zip(times, values)]
    return math.sqrt(sum(r * r for r in residuals) / (m - 2) / sxx)


def headline(workload, report):
    """Headline numbers of a report, each as (value, stated uncertainty)."""
    if workload == "ruelle_cat":
        return {
            "entropy_estimate": (report["entropy_estimate"], report["entropy_bias_bound"]),
            "sum_positive_exponents": (report["sum_positive_exponents"], report["stderr"]),
        }
    series = report["series"]
    window = [i for i, t in enumerate(series["times"]) if t >= report["burn_in"]]
    times = [series["times"][i] for i in window]
    se_h1 = slope_stderr(times, [-math.log(series["h_minus_one"][i]) for i in window])
    se_mix = slope_stderr(times, [-math.log(series["mixing_scale"][i]) for i in window])
    lsq_slope = report["fitted_log_sobolev_slope"]
    return {
        "fitted_h_minus_one_rate": (report["fitted_h_minus_one_rate"], se_h1),
        "fitted_mixing_scale_rate": (report["fitted_mixing_scale_rate"], se_mix),
        "fitted_log_sobolev_slope": (lsq_slope, LOG_SOBOLEV_REL_TOL * abs(lsq_slope)),
        "lambda_max_integral": (report["lambda_max_integral"], report["lambda_stderr"]),
        "grad_l1_average": (report["grad_l1_average"], None),
    }


def tolerances(workload, numbers, reference):
    """(target, tolerance) for each headline number of a run."""
    ref = reference["workloads"][workload]
    if workload == "ruelle_cat":
        entropy_bias = numbers["entropy_estimate"][1]
        exponent_se = numbers["sum_positive_exponents"][1]
        return {
            "entropy_estimate": (CAT_ENTROPY, entropy_bias + FLOAT_SLACK),
            "sum_positive_exponents": (CAT_ENTROPY, Z * exponent_se + FLOAT_SLACK),
        }
    exact_grad = ref["grad_l1_closed_form"]
    targets = {
        "lambda_max_integral": (
            ref["lambda_max_integral"][0],
            Z * math.hypot(numbers["lambda_max_integral"][1], ref["lambda_max_integral"][1])
            + FLOAT_SLACK,
        ),
        "grad_l1_average": (exact_grad, abs(ref["grad_l1_average"][0] - exact_grad) + FLOAT_SLACK),
        "fitted_log_sobolev_slope": (
            ref["fitted_log_sobolev_slope"][0],
            numbers["fitted_log_sobolev_slope"][1] + ref["fitted_log_sobolev_slope"][1],
        ),
    }
    for name in ("fitted_h_minus_one_rate", "fitted_mixing_scale_rate"):
        targets[name] = (ref[name][0], Z * numbers[name][1] + FLOAT_SLACK)
    return targets


def read_outputs(workload, outdir, seed):
    """Parse a run's outputs; returns (report, problems)."""
    problems = []
    try:
        with open(os.path.join(outdir, REPORTS[workload])) as handle:
            report = json.load(handle)
        with open(os.path.join(outdir, "resolved_config.cfg")) as handle:
            resolved = handle.read().splitlines()
        rows = None
        if workload == "mixing_alternating":
            with open(os.path.join(outdir, "mixing_series.csv")) as handle:
                rows = [[float(v) for v in row] for row in list(csv.reader(handle))[1:]]
    except (OSError, ValueError) as exc:
        return None, [f"unreadable output: {exc}"]
    if f"seed = {seed}" not in resolved:
        problems.append(f"resolved config does not carry seed = {seed}")
    if report.get("seed", seed) != seed:
        problems.append(f"report seed {report.get('seed')} != {seed}")
    if rows is not None:
        series = report["series"]
        columns = ["times", "h_minus_one", "log_sobolev", "mixing_scale"]
        expected = [[series[c][i] for c in columns] for i in range(len(series["times"]))]
        if rows != expected:
            problems.append("mixing_series.csv does not repeat the report series")
    return report, problems


def check(workload, outdir, seed, reference):
    """Check one run's outputs; returns (problems, compared).

    ``compared`` maps each headline number to its value, target and
    tolerance.  An empty problem list means the run passed.
    """
    report, problems = read_outputs(workload, outdir, seed)
    if report is None:
        return problems, {}
    try:
        numbers = headline(workload, report)
        targets = tolerances(workload, numbers, reference)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return problems + [f"report lacks a headline number: {exc!r}"], {}
    compared = {}
    for name, (target, tol) in targets.items():
        value = numbers[name][0]
        compared[name] = {"value": value, "target": target, "tolerance": tol}
        if not abs(value - target) <= tol:
            problems.append(f"{name} = {value!r} is not within {tol:.3g} of {target!r}")
    return problems, compared
