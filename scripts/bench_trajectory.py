#!/usr/bin/env python3
"""Record one point of the benchmark trajectory (a ``BENCH_*.json`` file).

For each benchmark workload the script runs ``perfbench/run.py`` untraced
at seed 7 for 60 seconds and keeps its medians, quartiles, ``correct`` flag
and ``problems``, and perfbench's ``environment`` record (commit, CPU count,
versions, ``src/`` lines) as perfbench writes it.  It then times the tier-1
test suite.  Points are only comparable at one seed and duration, so neither
can be set.  The script refuses a checkout whose tracked files differ from
its commit, so each point is the commit it names.  perfbench is called,
never edited.

Usage, from anywhere:

    python scripts/bench_trajectory.py BENCH_<n>.json
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ruelle_cat", "mixing_alternating")
SEED = 7
SECONDS = 60
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def perfbench(workload):
    """Summaries and verdict of one untraced run, and perfbench's environment record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace0.json").read_text())
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    metrics = {name: dict(record["metrics"][name], unit=unit) for name, unit in units.items()}
    return {
        "correct": result["correct"],
        "problems": record["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }, record["environment"]


def tier1():
    """Wall time and pass/fail summary of the tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.monotonic()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.monotonic() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|errors?|skipped)", summary)}
    return {
        "wall_s": wall,
        "exit_code": done.returncode,
        "summary": summary,
        "counts": counts,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("output", help="path of the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    changed = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True, check=True,
    ).stdout
    if changed:
        print(f"error: tracked files differ from the commit; commit them first:\n{changed}", file=sys.stderr)
        return 2

    workloads, environment = {}, None
    for workload in WORKLOADS:
        workloads[workload], environment = perfbench(workload)
    record = {
        "seed": SEED,
        "seconds": SECONDS,
        "environment": environment,
        "tier1": tier1(),
        "workloads": workloads,
    }
    Path(args.output).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({w: {k: v["median"] for k, v in r["metrics"].items()} for w, r in workloads.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
