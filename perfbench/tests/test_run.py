"""Failure accounting, the result line, and refusing to run outside a checkout."""

import json
import shutil
import subprocess
import sys

import click
import numpy as np
import pytest

import run
import worker
from conftest import BENCH, ROOT


def usage_error():
    raise click.UsageError("bad")


@pytest.mark.parametrize("behaviour, status, reason", [
    (lambda: None, "ok", None),
    (lambda: sys.exit(0), "ok", None),
    (lambda: sys.exit(2), "exit", "exit code 2"),
    (lambda: json.dumps([np.bool_(True)]), "crash",
     "TypeError: Object of type bool is not JSON serializable"),
    (usage_error, "crash", "UsageError: bad"),
])
def test_a_crash_is_told_apart_from_failed_checks(monkeypatch, behaviour, status, reason):
    monkeypatch.setattr(worker.cli, "main", lambda args, standalone_mode: behaviour())
    result = worker.run_command(["verify"], None)
    assert (result["status"], result["reason"]) == (status, reason)


VERIFY = ["verify", "--n", "3", "--d", "2", "--suite", "mul", "--format", "json"]


def run_verify_with_numpy_bools(monkeypatch, passed):
    """Run VERIFY with the seed's defect: reports whose passed is a numpy.bool_."""
    real = worker.cli.run_suite

    def run_suite(*args):
        reports = real(*args)
        for report in reports:
            report.passed = np.bool_(passed)
        return reports

    monkeypatch.setattr(worker.cli, "run_suite", run_suite)
    result = worker.run_command(VERIFY, None)
    worker.judge(VERIFY, result, np.random.default_rng(0))
    return result


def summarize(*tasks):
    passes = [{"tasks": list(tasks), "wall_s": 2.0, "verify_s": 1.0,
               "peak_rss_mb": 50.0, "setup_s": 0.5}]
    return run.summarize("oracle_small", 1, 30, False, passes, [{"setup_s": 0.4}])


def test_the_known_crash_counts_as_failed_and_its_reports_are_checked(monkeypatch):
    task = run_verify_with_numpy_bools(monkeypatch, True)
    assert task["status"] == "crash"
    assert task["reason"] == run.KNOWN_CRASH["reason"]
    assert task["where"] == run.KNOWN_CRASH["where"]
    assert task["recovered"] == "accepted"
    ok = {"command": "x", "status": "ok", "reason": None, "sha256": ""}
    result = summarize(ok, task)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, True)
    assert result["metrics"]["fail_ratio"] == 0.5
    assert result["metrics"]["setup_s"] == 0.45
    assert result["failures"][0].startswith(
        "verify --n 3 --d 2 --suite mul --format json: crash: TypeError: Object of type "
        "bool is not JSON serializable (known defect")


def test_the_known_crash_with_a_failed_check_is_incorrect(monkeypatch):
    task = run_verify_with_numpy_bools(monkeypatch, False)
    assert task["status"] == "rejected"
    assert task["reason"].startswith(run.KNOWN_CRASH["reason"])
    result = summarize(task)
    assert (result["failed"], result["correct"]) == (1, False)


def test_any_other_crash_is_incorrect(monkeypatch):
    known = run_verify_with_numpy_bools(monkeypatch, True)
    assert summarize(known)["correct"] is True
    for change in ({"reason": "TypeError: x"}, {"recovered": None},
                   {"where": known["where"] | {"cli_function": "ptalgebra.cli.cmd_irrep"}}):
        assert summarize(known | change)["correct"] is False, change
    monkeypatch.setattr(worker.cli, "main",
                        lambda args, standalone_mode: json.dumps([np.bool_(True)]))
    task = worker.run_command(VERIFY, None)
    worker.judge(VERIFY, task, np.random.default_rng(0))
    assert task["reason"] == run.KNOWN_CRASH["reason"]
    assert task["where"] == {"raised_in": "json.encoder.default", "cli_function": None}
    assert summarize(task)["correct"] is False


def test_an_exit_with_rejected_output_stays_an_exit(monkeypatch):
    def verify_with_a_failed_check(args, standalone_mode):
        print("[FAIL] mul_rule")
        sys.exit(1)

    monkeypatch.setattr(worker.cli, "main", verify_with_a_failed_check)
    task = worker.run_command(VERIFY, None)
    worker.judge(VERIFY, task, np.random.default_rng(0))
    assert task["status"] == "exit"
    assert task["reason"].startswith("exit code 1; output is not JSON")


def test_exit_rejected_and_lost_are_incorrect():
    for status in ("exit", "rejected", "lost"):
        task = {"command": "verify", "status": status, "reason": "r", "sha256": ""}
        assert summarize(task)["correct"] is False


def test_result_line_carries_the_end_to_end_metrics(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", "oracle_large", "--seed", "2", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle_small",
                           "--seed", "1", "--seconds", "5", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
