"""Smoke test of the benchmark: every workload at tiny size, both trace modes.

Run from the repository root (the name keeps it out of the tier-1 suite)::

    python3 -m pytest layerbench/smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", workload, "--seed", "3"]
        + ["--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_refuses_to_run_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "layerbench", tmp_path / "layerbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(tmp_path, "table1-cold", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
