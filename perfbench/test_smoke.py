"""Smoke test of the benchmark: every workload once, at reduced size."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(directory: Path, workload: str, trace: int):
    argv = [sys.executable, str(directory / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=directory, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    done = run(HERE.parent, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, done.stderr
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0  # failed_frac == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout == ""
