"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Runs the benchmark command for one second per workload, untraced and traced,
and checks that every metric BENCHMARK.json names is printed with its unit
and that no op failed.  Without the qfrelay source the command must fail
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_benchmark(cwd, workload, trace):
    command = [sys.executable, *SPEC["command"][1:], "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for name, unit in expected.items():
        assert printed.get(name) == unit, name
    assert printed["failed_frac"] == "1"
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0


def test_fails_without_source(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout == ""
