#!/usr/bin/env python3
"""Record the reference values that ``checks.py`` compares runs against.

Usage, from the root of a source checkout:

    python3 perfbench/record.py

Runs every workload once at its config's own seed and stores each headline
number with its stated uncertainty in ``perfbench/reference.json``.  It then
runs the output check on that run and on a run at ``SECOND_SEED``, and records
for both seeds the problems found and the tolerance of every checked number.
Exits non-zero if any check fails.
"""

import json
import os
import shutil
import sys
import tempfile

import checks
import run as bench

SECOND_SEED = 1


def config_value(path, key):
    """Value of ``key`` in a config file (first section that sets it)."""
    with open(path) as handle:
        for line in handle:
            name, sep, value = line.partition("=")
            if sep and name.strip() == key:
                return value.split("#")[0].strip()
    raise KeyError(f"{key} not set in {path}")


def main():
    os.makedirs(bench.OUT, exist_ok=True)
    work = tempfile.mkdtemp(dir=bench.OUT)
    reference = {"environment": bench.environment(), "workloads": {}, "verified": []}
    try:
        outdirs = {}
        for workload, config in bench.WORKLOADS.items():
            config_path = os.path.join(bench.ROOT, config)
            seed = int(config_value(config_path, "seed"))
            runner = bench.Runner(workload, seed, tempfile.mkdtemp(dir=work), None)
            run = runner.spawn("run")
            report, problems = checks.read_outputs(workload, run["outdir"], seed)
            if run["problems"] or problems:
                raise SystemExit(f"{workload}: {run['problems'] + problems}")
            outdirs[workload] = (seed, run["outdir"])
            entry = {"seed": seed}
            entry.update({k: list(v) for k, v in checks.headline(workload, report).items()})
            if workload != "ruelle_cat":
                # space-time mean of |2 pi A cos| over a period of the alternating shear
                entry["grad_l1_closed_form"] = 4.0 * float(config_value(config_path, "amplitude"))
            reference["workloads"][workload] = entry
        for workload, (seed, outdir) in outdirs.items():
            checked = [(seed, *checks.check(workload, outdir, seed, reference))]
            runner = bench.Runner(workload, SECOND_SEED, tempfile.mkdtemp(dir=work), reference)
            second = runner.spawn("run")
            checked.append((SECOND_SEED, second["problems"], second.get("checked", {})))
            for checked_seed, problems, compared in checked:
                reference["verified"].append(
                    {
                        "workload": workload,
                        "seed": checked_seed,
                        "problems": problems,
                        "tolerances": {k: v["tolerance"] for k, v in compared.items()},
                    }
                )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(checks.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    for item in reference["verified"]:
        print(item["workload"], item["seed"], item["problems"] or "ok")
    return 1 if any(item["problems"] for item in reference["verified"]) else 0


if __name__ == "__main__":
    sys.exit(main())
