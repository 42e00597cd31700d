"""Smoke test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced, exactly as the
benchmark command does, and checks that the result line reports every
metric ``BENCHMARK.json`` names, with its unit, and no failed
operation.  Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload: str) -> None:
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: entry["unit"]
                for name, entry in result["metrics"].items()} == {
            metric["name"]: metric["unit"] for metric in declared}
        for name, entry in result["metrics"].items():
            assert math.isfinite(entry["value"]), name
        if trace == 0:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())
