#!/usr/bin/env python3
"""Run every shipped config in configs/, in sorted order, and summarize their gates.

Each config writes its report and series under runs/; the script exits
nonzero if any experiment's gate fails.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ergomix.cli import main  # noqa: E402


def run_all():
    root = pathlib.Path(__file__).resolve().parents[1]
    worst = 0
    for path in sorted((root / "configs").glob("*.cfg")):
        name = path.relative_to(root)
        print(f"=== {name} ===")
        code = main(["run", str(path)])
        print(f"exit code {code}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run_all())
