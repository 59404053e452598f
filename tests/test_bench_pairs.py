import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCRIPT = os.path.join(ROOT, "scripts", "bench_pairs.py")


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
        assert f"{name}: parent " in stdout
    assert set(record["first_in_pair"]) <= {"parent", "change"} and len(record["first_in_pair"]) == 2


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
