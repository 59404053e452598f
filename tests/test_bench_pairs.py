import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _pairs(parent, change, pairs):
    result = subprocess.run(
        [sys.executable, SCRIPT, str(parent), str(change), "--workload", "ruelle_cat", "--pairs", str(pairs)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return result.returncode, json.loads(result.stdout.strip().splitlines()[-1]), result.stdout


def test_two_copies_of_one_tree_pass_every_check_and_the_sign_test_does_not_reject():
    code, record, stdout = _pairs(ROOT, ROOT, 2)
    assert code == 0 and record["failed_runs"] == 0 and record["complete_pairs"] == 2
    assert sorted(record["metrics"]) == ["peak_rss_mb", "run_s", "setup_s", "total_s"]
    for name, row in record["metrics"].items():
        assert row["parent"]["n"] == row["change"]["n"] == 2
        assert row["change_wins"] + row["change_losses"] <= 2
        assert row["sign_test_p"] >= 0.5, name  # two pairs can never reject
        assert row["verdict"] in ("better", "unresolved", "worse", "within bound")
        assert f"{name}: parent " in stdout and f"verdict: {row['verdict']}" in stdout
    for tree in ("parent", "change"):
        assert all(pair[tree]["minor_faults"] > 0 for pair in record["runs"])
        assert record["minor_faults_median"][tree] > 0
    assert "median minor faults per run: parent " in stdout
    assert set(record["first_in_pair"]) <= {"parent", "change"} and len(record["first_in_pair"]) == 2


def test_pairs_rotate_the_path_length_and_share_it_within_a_pair():
    # the heap state follows the copy's path length, so four pairs sample four lengths
    code, record, stdout = _pairs(ROOT, ROOT, 4)
    assert code == 0 and record["complete_pairs"] == 4
    lengths = [pair["parent"]["path_length"] for pair in record["runs"]]
    assert [pair["change"]["path_length"] for pair in record["runs"]] == lengths
    assert len(set(lengths)) == 4
    by_length = record["minor_faults_median_by_path_length"]
    assert sorted(int(length) for length in by_length) == sorted(lengths)
    for length in lengths:
        assert all(by_length[str(length)][tree] > 0 for tree in ("parent", "change"))
        assert f"at path length {length}: parent " in stdout


def test_a_run_whose_gate_fails_counts_as_a_failure_not_as_a_time(tmp_path):
    # at level 2 the cat map's entropy estimate overshoots its bound and the run exits 1
    broken = tmp_path / "tree"
    for part in ("src", "configs"):
        shutil.copytree(os.path.join(ROOT, part), broken / part, ignore=shutil.ignore_patterns("__pycache__"))
    config = broken / "configs" / "ruelle_cat.cfg"
    config.write_text(config.read_text().replace("level = 4", "level = 2"))
    code, record, _ = _pairs(ROOT, broken, 1)
    assert code == 1 and record["failed_runs"] == 1 and record["complete_pairs"] == 0
    assert record["metrics"] == {}
    assert record["runs"][0]["change"]["problems"] and not record["runs"][0]["parent"]["problems"]


STEADY = [1.0, 1.01, 1.02, 1.03]  # median 1.015, quartile spread 0.025 of it


@pytest.mark.parametrize(
    "better, parent, change, expected",
    [
        ("lower", [1.0, 1.1, 1.2, 1.3], [0.5, 0.6, 0.7, 0.8], "better"),  # every change run beats every parent run
        ("higher", [0.5, 0.6, 0.7, 0.8], [1.0, 1.1, 1.2, 1.3], "better"),
        ("lower", [1.0, 1.5, 2.0, 2.5], [1.2, 1.6, 2.1, 2.4], "unresolved"),  # parent spread 0.71 > 0.25
        ("lower", STEADY, [0.9, 1.4, 1.5, 1.6], "worse"),  # median 1.45, 43% above 1.015
        ("higher", STEADY, [0.5, 0.6, 1.1, 0.7], "worse"),  # median 0.65, 36% below 1.015
        ("lower", STEADY, [0.99, 1.0, 1.05, 1.1], "within bound"),  # median 1.025, 1% above
    ],
)
def test_verdict_follows_the_bound_and_the_better_direction(better, parent, change, expected):
    metric = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    assert _load_script().verdict(parent, change, metric) == expected
