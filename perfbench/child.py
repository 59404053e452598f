"""One ergomix command-line run in this fresh process, with stage times.

Usage: child.py MODE ROOT CONFIG SEED OUTDIR RESULT_JSON

MODE is ``run`` (the full ``ergomix run``), ``trace`` (the same run with
per-module spans) or ``setup`` (the same command, stopped where
``run_experiment`` would start).  The workload seed and the output directory
go in as ``--set`` overrides.  Stage times are CLOCK_MONOTONIC readings, which the parent
process compares with its own spawn time.  The exit code is the CLI's.
"""

import json
import os
import sys
import time


class ConfigResolved(Exception):
    """Stops a ``setup`` run where the experiment would start."""


def main():
    mode, root, config, seed, outdir, result_path = sys.argv[1:7]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    times = {}
    start = time.monotonic()
    import ergomix.cli as cli

    times["imported"] = time.monotonic()
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"ergomix was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    overrides = [f"seed={seed}", f"output_dir={outdir}"]
    result = {"import_s": times["imported"] - start, "times": times}

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    parse, run = cli.parse_config, cli.run_experiment

    def timed_parse(*args, **kwargs):
        config_value = parse(*args, **kwargs)
        times["config_resolved"] = time.monotonic()
        return config_value

    def timed_run(*args, **kwargs):
        if mode == "setup":
            raise ConfigResolved
        times["run_start"] = time.monotonic()
        try:
            return run(*args, **kwargs)
        finally:
            times["run_end"] = time.monotonic()

    cli.parse_config, cli.run_experiment = timed_parse, timed_run
    argv = ["run", config]
    for override in overrides:
        argv += ["--set", override]
    try:
        code = cli.main(argv)
    except ConfigResolved:
        code = 0
    times["done"] = time.monotonic()
    if tracer is not None:
        result["trace"] = tracer.export()
    result["code"] = code
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
