#!/usr/bin/env python3
"""Compare the reports, series and resolved configs of two run directories.

Usage: python scripts/compare_reports.py OLD_DIR NEW_DIR

Every *_report.json, *_series.csv and resolved_config.cfg found at the same
relative path under both directories is compared.  A byte-identical file
prints "identical".  Otherwise every numeric JSON key (nested keys joined by
dots, list entries read under their list's key), CSV column or config entry
prints its largest relative change |new - old| / max(|old|, |new|).  Exits 1
when a boolean, a string, a key set or a list length differs, or when a file
is in one directory only; else 0.
"""

import csv
import json
import math
import pathlib
import sys

PATTERNS = ("*_report.json", "*_series.csv", "resolved_config.cfg")


def _json_entries(value, key, entries):
    if isinstance(value, dict):
        for name, item in value.items():
            _json_entries(item, f"{key}.{name}" if key else name, entries)
    elif isinstance(value, list):
        for item in value:
            _json_entries(item, key, entries)
    else:
        entries.setdefault(key, []).append(value)
    return entries


def _csv_entries(text):
    header, *rows = list(csv.reader(text.splitlines()))
    return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}


def _config_entries(text):
    entries, section = {}, ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line.strip("[]") + "."
        elif "=" in line:
            key, raw = (part.strip() for part in line.split("=", 1))
            try:
                entries[section + key] = [float(item) for item in raw.split(",")]
            except ValueError:
                entries[section + key] = [raw]
    return entries


def entries(path, text):
    """{key: list of scalar values} of one report, series or resolved config."""
    if path.suffix == ".json":
        return _json_entries(json.loads(text), "", {})
    if path.suffix == ".csv":
        return _csv_entries(text)
    return _config_entries(text)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(old, new):
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    scale = max(abs(old), abs(new))
    return abs(new - old) / scale if math.isfinite(scale) else math.inf


def compare(old, new):
    """(lines describing the changes, whether anything but a number changed)."""
    lines, broken = [], False
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            lines.append(f"  {key}: only in {'OLD' if key in old else 'NEW'}")
            broken = True
        elif len(old[key]) != len(new[key]):
            lines.append(f"  {key}: length {len(old[key])} -> {len(new[key])}")
            broken = True
        elif all(_is_number(a) and _is_number(b) for a, b in zip(old[key], new[key])):
            largest = max((relative_change(a, b) for a, b in zip(old[key], new[key])), default=0.0)
            lines.append(f"  {key}: {largest:.2e}")
        elif old[key] != new[key]:
            changed = next((a, b) for a, b in zip(old[key], new[key]) if a != b)
            lines.append(f"  {key}: {changed[0]!r} -> {changed[1]!r}")
            broken = True
    return lines, broken


def main(argv):
    if len(argv) != 2:
        print("usage: compare_reports.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    roots = [pathlib.Path(arg) for arg in argv]
    found = [
        {path.relative_to(root) for pattern in PATTERNS for path in root.rglob(pattern)}
        for root in roots
    ]
    broken = False
    for name in sorted(found[0] | found[1]):
        if name not in found[0] or name not in found[1]:
            print(f"{name}: only in {'OLD' if name in found[0] else 'NEW'}")
            broken = True
            continue
        old_text, new_text = ((root / name).read_text() for root in roots)
        if old_text == new_text:
            print(f"{name}: identical")
            continue
        lines, file_broken = compare(entries(name, old_text), entries(name, new_text))
        print(f"{name}:")
        print("\n".join(lines))
        broken = broken or file_broken
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
