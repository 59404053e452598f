#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload in interleaved pairs of runs.

Each tree's ``src/`` and ``configs/`` are copied to paths of equal length.
The length of that path sets which of a few glibc heap states a run lands
in, and with it the minor-fault count and part of ``run_s``, for each tree
separately; so the pairs rotate over ``PATH_LENGTHS`` lengths, both copies
of one pair sharing one.  Each pair makes one ``perfbench/child.py`` run of
each copy, the same command, seed and ``ERGOMIX_THREADS`` that
``perfbench/run.py`` uses, and a coin picks which tree runs first.  Every
run's outputs go through perfbench's checks against its reference; a run
that exits non-zero or fails a check counts as a failure, and its pair is
left out of the metrics.  Both trees are measured with this checkout's
``perfbench/``, which the script calls and never edits.

For each end-to-end metric of ``BENCHMARK.json`` it prints both trees'
medians and quartiles, the median of the paired differences (change minus
parent), the number of pairs the change wins (ties count for neither), the
two-sided sign test's p-value and a verdict (see ``verdict``), plus whether
each tree's peak RSS repeats within perfbench's tolerance and each tree's
median count of minor page faults per run, overall and per path length,
which tells the heap states of a bimodal workload apart.  A pair whose two
runs' minor-fault counts are within ``MATCHED_FAULTS`` of the larger ran in
one heap state; for those pairs alone it prints and records
(``matched_fault_state``) their number and, per metric, the median paired
difference and the change's wins, so that a heap-state flip between the
trees is not read as the change's effect.  The last line of
standard output is the JSON record, with every run's samples.  The exit
code is 1 if any run failed.

Usage, from anywhere:

    python scripts/bench_pairs.py PARENT CHANGE --workload mixing_alternating --pairs 10
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402  (perfbench's own modules, found on its directory)
import run as perfbench  # noqa: E402

TREES = ("parent", "change")
PATH_LENGTHS, PAD_STEP = 4, 5  # the pairs rotate over 4 copy path lengths, 5 characters apart
MATCHED_FAULTS = 0.03  # a pair whose minor-fault counts differ by at most 3% of the larger ran in one heap state


def place(tree, copy):
    """Copy what a child run reads from tree: its package source and its configs."""
    for part in ("src", "configs"):
        shutil.copytree(Path(tree) / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))


def spawn(copy, workload, seed, reference, tag):
    """One fresh child run of the copy, timed and checked as perfbench times and checks it."""
    outdir, result_path, log_path = (copy / "out" / f"{tag}{suffix}" for suffix in ("", ".json", ".log"))
    config = copy / perfbench.WORKLOADS[workload]
    cmd = [sys.executable, str(PERFBENCH / "child.py"), "run", str(copy), str(config), str(seed), str(outdir)]
    env = dict(os.environ, ERGOMIX_THREADS=str(perfbench.THREADS))
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + [str(result_path)], cwd=copy, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(perfbench.CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    code = os.waitstatus_to_exitcode(status)
    run = {
        "path_length": len(str(copy)),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "minor_faults": usage.ru_minflt,
        "problems": [] if code == 0 else [f"exit code {code}"],
    }
    try:
        times = json.loads(result_path.read_text())["times"]
        run.update(
            setup_s=times["config_resolved"] - spawned,
            run_s=times["run_end"] - times["run_start"],
            total_s=times["done"] - spawned,
        )
    except (OSError, ValueError, KeyError) as exc:
        run["problems"].append(f"no stage times: {exc!r}")
    if not run["problems"]:
        run["problems"] += checks.check(workload, str(outdir), seed, reference)[0]
    if run["problems"]:
        print(f"{tag} failed: {run['problems']}\n{log_path.read_text()[-2000:]}", file=sys.stderr)
    shutil.rmtree(outdir, ignore_errors=True)
    return run


def sign_test(wins, losses):
    """Two-sided sign-test p-value of wins against losses, ties left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    return min(1.0, 2.0 * sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n)


def verdict(parent, change, metric):
    """One metric's verdict from both trees' samples, in the metric's ``better`` direction.

    "better" when every change run beats every parent run; else "unresolved"
    when the parent's quartile spread, (q3 - q1) / median, exceeds the
    metric's ``bound``; else "worse" when the change's median is worse than
    the parent's by more than that bound, relative to the parent's median;
    else "within bound".
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "better"
    base = perfbench.summary(parent)
    if (base["q3"] - base["q1"]) / base["median"] > metric["bound"]:
        return "unresolved"
    if sign * (statistics.median(change) - base["median"]) / base["median"] > metric["bound"]:
        return "worse"
    return "within bound"


def paired(pairs, metric):
    """One metric's paired differences (change minus parent), and the pairs the change wins and loses."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    diffs = [pair["change"][metric["name"]] - pair["parent"][metric["name"]] for pair in pairs]
    return diffs, sum(1 for d in diffs if sign * d < 0), sum(1 for d in diffs if sign * d > 0)


def compare(pairs, metrics):
    """Per end-to-end metric: each tree's summary, the paired differences, the wins and the sign test."""
    rows = {}
    for metric in metrics:
        name = metric["name"]
        values = {tree: [pair[tree][name] for pair in pairs] for tree in TREES}
        diffs, wins, losses = paired(pairs, metric)
        rows[name] = {
            **{tree: perfbench.summary(values[tree]) for tree in TREES},
            "median_paired_difference": statistics.median(diffs),
            "change_wins": wins,
            "change_losses": losses,
            "sign_test_p": sign_test(wins, losses),
            "verdict": verdict(values["parent"], values["change"], metric),
        }
    return rows


def matched(pair):
    """Whether the pair's two runs ran in one heap state: minor faults within MATCHED_FAULTS of the larger."""
    parent, change = (pair[tree]["minor_faults"] for tree in TREES)
    return abs(change - parent) <= MATCHED_FAULTS * max(parent, change)


def matched_fault_state(pairs, metrics):
    """The number of matched pairs and, over them alone, each metric's median paired difference and wins."""
    same = [pair for pair in pairs if matched(pair)]
    rows = {}
    for metric in metrics if same else ():
        diffs, wins, _ = paired(same, metric)
        rows[metric["name"]] = {"median_paired_difference": statistics.median(diffs), "change_wins": wins}
    return {"pairs": len(same), "metrics": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="source tree of the parent (a checkout holding src/ and configs/)")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=sorted(perfbench.WORKLOADS))
    parser.add_argument("--pairs", type=int, required=True, help="number of parent/change pairs")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    reference = checks.load_reference()
    coin = random.Random()
    runs, order = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        for i in range(args.pairs):
            pad = "_" * (PAD_STEP * (i % PATH_LENGTHS))
            copies = {tree: Path(work) / (pad + tree[0]) for tree in TREES}  # "p" and "c": one length
            for tree, copy in copies.items():
                if not copy.exists():
                    place(getattr(args, tree), copy)
                    (copy / "out").mkdir()
            first = coin.choice(TREES)
            order.append(first)
            pair = {}
            for tree in sorted(TREES, key=lambda t: t != first):
                pair[tree] = spawn(copies[tree], args.workload, args.seed, reference, f"{tree}{i}")
            runs.append(pair)
            print(f"pair {i + 1}: " + ", ".join(f"{t} total_s={pair[t].get('total_s', math.nan):.3f}" for t in TREES))
    failed = sum(1 for pair in runs for run in pair.values() if run["problems"])
    pairs = [pair for pair in runs if not any(run["problems"] for run in pair.values())]
    rows = compare(pairs, metrics) if pairs else {}
    same = matched_fault_state(pairs, metrics)
    rss, faults, faults_by_length = {}, {}, {}
    for tree in TREES:
        values = [pair[tree]["peak_rss_mb"] for pair in pairs]
        median = statistics.median(values) if values else math.nan
        spread = max((abs(v / median - 1.0) for v in values), default=math.nan)
        rss[tree] = {"max_rel_deviation": spread, "repeats": spread <= perfbench.RSS_REL_TOL}
        faults[tree] = statistics.median(pair[tree]["minor_faults"] for pair in pairs) if pairs else math.nan
        for length in sorted({pair[tree]["path_length"] for pair in pairs}):
            at_length = [pair[tree]["minor_faults"] for pair in pairs if pair[tree]["path_length"] == length]
            faults_by_length.setdefault(length, {})[tree] = statistics.median(at_length)
    print(f"{args.workload}: {len(pairs)} complete pairs of {args.pairs}, {failed} failed runs, seed {args.seed}")
    for name, row in rows.items():
        sides = "  ".join(f"{t} {row[t]['median']:.4f} (q1 {row[t]['q1']:.4f}, q3 {row[t]['q3']:.4f})" for t in TREES)
        print(
            f"{name}: {sides}  paired diff {row['median_paired_difference']:+.4f}  "
            f"change better in {row['change_wins']} of {len(pairs)}  sign p {row['sign_test_p']:.3g}  "
            f"verdict: {row['verdict']}"
        )
    for tree in TREES:
        print(f"{tree} peak_rss_mb within {perfbench.RSS_REL_TOL:.0%} of its median: {rss[tree]['repeats']}")
    print("median minor faults per run: " + ", ".join(f"{t} {faults[t]:.0f}" for t in TREES))
    for length, row in faults_by_length.items():
        print(f"  at path length {length}: " + ", ".join(f"{t} {row[t]:.0f}" for t in TREES))
    print(f"pairs in one heap state (minor faults within {MATCHED_FAULTS:.0%}): {same['pairs']} of {len(pairs)}")
    for name, row in same["metrics"].items():
        print(
            f"  {name}: paired diff {row['median_paired_difference']:+.4f}  "
            f"change better in {row['change_wins']} of {same['pairs']}"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "complete_pairs": len(pairs),
        "failed_runs": failed,
        "first_in_pair": order,
        "metrics": rows,
        "peak_rss_repeats": rss,
        "minor_faults_median": faults,
        "minor_faults_median_by_path_length": faults_by_length,
        "matched_fault_state": same,
        "runs": runs,
    }
    print(json.dumps(record))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
