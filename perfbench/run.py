#!/usr/bin/env python3
"""ergomix benchmark: time from ``ergomix run <config>`` to a verified report.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mixing_alternating --seed 7 --seconds 60 --trace 0

Each workload is a shipped config, run as a fresh ergomix process: closed
loop, one client, one run at a time, ``ERGOMIX_THREADS`` pinned to
min(2, nproc).  The workload seed goes in as ``--set seed=<S>`` and the output
as ``--set output_dir=<tmp>`` under ``.perfbench/`` in the checkout, so
nothing is written under ``runs/``.  Every run's outputs are checked
(``checks.py``); a run that exits non-zero or fails the check counts as
failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start to
resolved config, over the full runs and the set-up runs that fill the time
they leave), ``run_s`` (wall time of ``run_experiment``), ``total_s``
(process start to report, series and resolved config written) and
``peak_rss_mb``, as medians over the runs that fit in ``--seconds``.

``--trace 1`` makes one untraced run and two traced runs (``tracer.py``) and
reports the per-layer metrics; a layer the workload does not run reads 0.
Exact counters must agree between the two traced runs and every span expected
on the workload must record calls.  The spans, self times and tracing
overhead (traced ``total_s`` minus the untraced one) are written to
``.perfbench/traces/``.

The last line of standard output is the JSON result, with the units declared
in ``BENCHMARK.json``; the environment, per-run samples and the value, target
and tolerance of every checked number go to ``.perfbench/results/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(ROOT, ".perfbench")

# Why each workload is here is recorded in BENCHMARK.json.  The single-threaded
# lyapunov_steady_shear config is left out: on a 2-CPU host whose speed drifts
# by minutes, its medians spread by more than any usable bound.
WORKLOADS = {
    "ruelle_cat": "configs/ruelle_cat.cfg",
    "mixing_alternating": "configs/mixing_alternating.cfg",
}
THREADS = min(2, os.cpu_count() or 1)  # ERGOMIX_THREADS of every run
CHILD_TIMEOUT_S = 120.0  # a run still going this long after its spawn is killed
RSS_REL_TOL = 0.03  # peak RSS of repeated runs: thread-pool timing moves it by ~1 MB


def declared_units():
    """Metric name -> unit, for the end-to-end and the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment():
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        probe = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = probe.stdout.strip() or None
    src_lines = 0
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as handle:
                    src_lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "ERGOMIX_THREADS": THREADS,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def summary(values):
    """Median, quartiles and sample count of one metric."""
    values = sorted(values)
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2], "n": len(values)}


class Runner:
    """Spawns and checks the child processes of one benchmark invocation."""

    def __init__(self, workload, seed, work, reference):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.config = os.path.join(ROOT, WORKLOADS[workload])
        self.env = dict(os.environ, ERGOMIX_THREADS=str(THREADS))
        self.runs = []

    def spawn(self, mode):
        """One fresh ergomix process; its outputs are checked unless there is
        no reference yet."""
        tag = f"{mode}{len(self.runs)}"
        outdir = os.path.join(self.work, tag)
        result_path = outdir + ".json"
        cmd = [sys.executable, CHILD, mode, ROOT, self.config, str(self.seed), outdir, result_path]
        with open(outdir + ".log", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        run = {
            "mode": mode,
            "exit_code": proc.returncode,
            "wall_s": time.monotonic() - spawned,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "outdir": outdir,
            "problems": [],
        }
        self.runs.append(run)
        if proc.returncode != 0:
            killed = run["wall_s"] >= CHILD_TIMEOUT_S
            run["problems"].append(f"exit code {proc.returncode}" + (" (timed out)" if killed else ""))
        try:
            with open(result_path) as handle:
                child = json.load(handle)
            times = child["times"]
            run["import_s"] = child["import_s"]
            run["setup_s"] = times["config_resolved"] - spawned
            if mode != "setup":
                run["run_s"] = times["run_end"] - times["run_start"]
                run["total_s"] = times["done"] - spawned
                run["trace"] = child.get("trace")
        except (OSError, ValueError, KeyError) as exc:
            run["problems"].append(f"no stage times: {exc!r}")
        if mode != "setup" and self.reference is not None and not run["problems"]:
            problems, run["checked"] = checks.check(self.workload, outdir, self.seed, self.reference)
            run["problems"] += problems
        if run["problems"]:
            with open(outdir + ".log") as log:
                tail = log.read()[-2000:]
            print(f"{tag} failed: {run['problems']}\n{tail}", file=sys.stderr)
        return run


def untraced(runner, seconds):
    """Full runs while the next one fits in ``seconds``, then set-up runs in
    the time left.  A single set-up sample is noisy (the same imports read
    1.5 to 2.5 s on a 2-CPU VM), so ``setup_s`` is the median of the set-up
    times of all these runs."""
    started = time.monotonic()

    def fits(wall_s):
        return time.monotonic() - started + wall_s <= seconds

    full = []
    while not full or fits(full[-1]["wall_s"]):
        full.append(runner.spawn("run"))
        print(f"run {len(full)}: total_s={full[-1].get('total_s', float('nan')):.3f}", flush=True)
    setup = []
    while fits(setup[-1]["wall_s"] if setup else full[-1].get("setup_s", seconds)):
        setup.append(runner.spawn("setup"))
    problems = []
    rss = [r["peak_rss_mb"] for r in full]
    rss_median = statistics.median(rss)
    if max(abs(v - rss_median) for v in rss) > RSS_REL_TOL * rss_median:
        problems.append(f"peak_rss_mb does not repeat within {RSS_REL_TOL:.0%}: {rss}")
    samples = {
        "setup_s": [r["setup_s"] for r in full + setup if "setup_s" in r],
        "run_s": [r["run_s"] for r in full if "run_s" in r],
        "total_s": [r["total_s"] for r in full if "total_s" in r],
        "peak_rss_mb": rss,
    }
    return {k: summary(v) for k, v in samples.items() if v}, problems


def traced(runner, units):
    base = runner.spawn("run")
    runs = [runner.spawn("trace"), runner.spawn("trace")]
    problems = []
    per_run = []
    for run in runs:
        if run.get("trace") is None:
            continue
        missing = tracer.missing_spans(runner.workload, run["trace"]["counts"])
        if missing:
            run["problems"].append(f"expected spans recorded no calls: {missing}")
            print(f"traced run failed: {run['problems']}", file=sys.stderr)
        per_run.append(tracer.layer_metrics(run["trace"], run["import_s"]))
    if len(per_run) < 2:
        return {}, problems + ["a traced run failed"], None
    first, second = per_run
    declared = set(units) - {"trace.overhead_s"}
    if set(first) != declared:
        problems.append(f"traced metrics differ from BENCHMARK.json: {sorted(set(first) ^ declared)}")
    exact = [k for k in first if units.get(k) in ("count", "bytes")]
    differing = [k for k in exact if first[k] != second[k]]
    if differing:
        problems.append(f"exact counters differ between traced runs: {differing}")
    metrics = {k: first[k] if k in exact else statistics.median([first[k], second[k]]) for k in first}
    if "total_s" in base:
        metrics["trace.overhead_s"] = statistics.median(r["total_s"] for r in runs) - base["total_s"]
    trace = runs[0]["trace"]
    own = tracer.self_times(trace["spans"])
    for span in trace["spans"]:
        span["self"] = own[span["id"]]
    detail = {
        "untraced_total_s": base.get("total_s"),
        "traced_total_s": [r.get("total_s") for r in runs],
        "overhead_s": metrics.get("trace.overhead_s"),
        "metrics_per_run": per_run,
        "spans": trace["spans"],
        "counts": trace["counts"],
    }
    return metrics, problems, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config = os.path.join(ROOT, WORKLOADS[args.workload])
    if not (os.path.isfile(os.path.join(ROOT, "src", "ergomix", "cli.py")) and os.path.isfile(config)):
        print(f"error: {ROOT} lacks src/ergomix or {WORKLOADS[args.workload]}", file=sys.stderr)
        return 2
    try:
        reference = checks.load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {checks.REFERENCE_PATH}: {exc}", file=sys.stderr)
        return 2
    try:
        units = declared_units()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the metrics of BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 2
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "tmp", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(args.workload, args.seed, work, reference)
    try:
        if args.trace:
            values, problems, detail = traced(runner, units)
            summaries = None
            if detail is not None:
                os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
                with open(os.path.join(OUT, "traces", tag + ".json"), "w") as handle:
                    json.dump(dict(detail, environment=env, seed=args.seed), handle)
        else:
            summaries, problems = untraced(runner, args.seconds)
            values = {k: v["median"] for k, v in summaries.items()}
            for k, v in summaries.items():
                print(f"{k}: median {v['median']:.4f} q1 {v['q1']:.4f} q3 {v['q3']:.4f} n {v['n']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in runner.runs if r["problems"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "problems": problems,
        "metrics": summaries or values,
        "runs": [{k: v for k, v in r.items() if k not in ("trace", "outdir")} for r in runner.runs],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runner.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
