import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "compare_reports.py")


def _write_run(root, report, series_rows, config_text):
    root.mkdir()
    (root / "mixing_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    lines = ["t,h_minus_one"] + [f"{t!r},{h!r}" for t, h in series_rows]
    (root / "mixing_series.csv").write_text("\n".join(lines) + "\n")
    (root / "resolved_config.cfg").write_text(config_text)


def _compare(old, new):
    result = subprocess.run(
        [sys.executable, SCRIPT, str(old), str(new)], capture_output=True, text=True, check=False
    )
    return result.returncode, result.stdout.splitlines()


REPORT = {"pass_direction": True, "rate": 0.5, "series": {"h_minus_one": [1.0, 0.25], "kind": "x"}}
CONFIG = "experiment = mixing\nkappa = 0.25\n\n[field]\nkind = alternating_shear\nphases = 0.1, 0.4\n"


def test_compare_reports_prints_identical_and_largest_relative_change(tmp_path):
    _write_run(tmp_path / "old", REPORT, [(0.0, 1.0), (1.0, 0.5)], CONFIG)
    changed = dict(REPORT, rate=0.25, series={"h_minus_one": [1.0, 0.2], "kind": "x"})
    _write_run(tmp_path / "new", changed, [(0.0, 1.0), (1.0, 0.4)], CONFIG)
    code, lines = _compare(tmp_path / "old", tmp_path / "new")
    assert code == 0
    assert lines == [
        "mixing_report.json:",
        "  rate: 5.00e-01",
        "  series.h_minus_one: 2.00e-01",
        "mixing_series.csv:",
        "  h_minus_one: 2.00e-01",
        "  t: 0.00e+00",
        "resolved_config.cfg: identical",
    ]


def test_compare_reports_exits_1_on_a_changed_flag_string_or_key_set(tmp_path):
    _write_run(tmp_path / "old", REPORT, [(0.0, 1.0)], CONFIG)
    changed = dict(REPORT, pass_direction=False, extra=1.0)
    _write_run(tmp_path / "new", changed, [(0.0, 1.0)], CONFIG.replace("alternating_shear", "cellular"))
    code, lines = _compare(tmp_path / "old", tmp_path / "new")
    assert code == 1
    assert "  extra: only in NEW" in lines
    assert "  pass_direction: True -> False" in lines
    assert "  field.kind: 'alternating_shear' -> 'cellular'" in lines
    assert "mixing_series.csv: identical" in lines
