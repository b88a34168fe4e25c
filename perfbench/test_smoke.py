"""Smoke self-test of the benchmark: every workload, untraced and traced, on
a tiny scene for the shortest run, must pass its output checks and emit
every metric BENCHMARK.json names, with its unit.

    python3 -m pytest -q perfbench/test_smoke.py     (from the repository root)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    done = _run(["--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--size", "32"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "eval-128", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
