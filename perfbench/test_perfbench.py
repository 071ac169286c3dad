"""Smoke tests for the benchmark itself: tiny inputs, every metric emitted.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    entries = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {e["name"] for e in entries}
    for e in entries:
        metric = result["metrics"][e["name"]]
        assert metric["unit"] == e["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0


def test_same_seed_same_inputs():
    first, second = (json.loads(run_bench(ROOT, "predict-parallel", 0).stdout.splitlines()[-1])
                     for _ in range(2))
    for name in ("heldout_loss", "dataset_bytes_per_window"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, smoke=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
