"""Command-line front end.

Subcommands:
  run <config> [--set key=value ...]   run an experiment, write report + series
  diagnose <gridfield-file>            one-shot diagnostics of a saved grid
  catalog                              list field, map, and datum kinds

Exit codes: 0 all gates pass, 1 gate failure, 2 config or file error
(including an undersampled entropy, a fit window under 4 points or a datum
the grid cannot resolve), 3 any other package error, such as a numeric
divergence or a non-finite report value; each prints one line.
"""

import argparse
import os
import sys

from .config import Config, parse_config, render_config
from .diagnostics import h_minus_one, log_sobolev, mixing_scale
from .errors import ConfigError, ErgomixError
from .fields import FIELD_KINDS
from .harness import run_experiment, write_json_atomic, write_series_csv_atomic, write_text_atomic
from .maps import MAP_KINDS
from .scalar import DATUM_KINDS, load_grid

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _build_parser():
    parser = argparse.ArgumentParser(prog="ergomix")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("config", help="path to the key = value config file")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config entry, e.g. --set field.amplitude=1.0",
    )

    diag = sub.add_parser("diagnose", help="print diagnostics of a saved grid field")
    diag.add_argument("grid", help="grid stem or sidecar path written by the scalar module")
    diag.add_argument("--kappa", type=float, default=Config.kappa)

    sub.add_parser("catalog", help="list available fields, maps, and initial data")
    return parser


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not UTF-8 text: {exc}")
    config = parse_config(text, overrides=args.overrides)

    resolved = render_config(config)
    print(resolved, end="")

    payload, passed, series = run_experiment(config)
    out = config.output_dir
    write_text_atomic(resolved, os.path.join(out, "resolved_config.cfg"))
    write_json_atomic(payload, os.path.join(out, f"{config.experiment}_report.json"))
    if series is not None:
        write_series_csv_atomic(series, os.path.join(out, f"{config.experiment}_series.csv"))
    print(_summary_line(config.experiment, payload, passed))
    return EXIT_OK if passed else EXIT_GATE_FAILURE


def _summary_line(experiment, payload, passed):
    if experiment == "ruelle":
        return (
            f"ruelle: entropy={payload['entropy_estimate']:.4f} "
            f"sum_positive={payload['sum_positive_exponents']:.4f} pass={passed}"
        )
    if experiment in ("mixing", "regularity"):
        return (
            f"{experiment}: beta={payload['fitted_h_minus_one_rate']:.4f} "
            f"lsq_slope={payload['fitted_log_sobolev_slope']:.4f} "
            f"lambda_int={payload['lambda_max_integral']:.4f} pass={passed}"
        )
    return (
        f"lyapunov: lambda_max_integral={payload['lambda_max_integral']:.6f} pass={passed}"
    )


def _diagnose_path(path, kappa) -> int:
    grid = load_grid(path)
    h1 = h_minus_one(grid)
    lsq = log_sobolev(grid)
    mix = mixing_scale(grid, kappa)
    print(f"resolution = {grid.resolution}")
    print(f"time = {grid.time}")
    print(f"h_minus_one = {h1!r}")
    print(f"log_sobolev_sq = {lsq!r}")
    print(f"mixing_scale = {mix!r}")
    return EXIT_OK


def _cmd_catalog() -> int:
    print("fields: " + ", ".join(FIELD_KINDS))
    print("maps: " + ", ".join(MAP_KINDS))
    print("data: " + ", ".join(DATUM_KINDS))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "diagnose":
            return _diagnose_path(args.grid, args.kappa)
        return _cmd_catalog()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (OSError, UnicodeEncodeError) as exc:
        # a config path that is a directory, an output_dir under a file or one the locale cannot name
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ErgomixError as exc:
        # diverged integration, degenerate cocycle, singular orbits, bad fits
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


def console_entry():
    # the echoed config may hold text the locale's stdout encoding lacks
    sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
