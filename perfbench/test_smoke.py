"""Smoke test of the benchmark: each workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that a tiny run passes its correctness gate and reports every metric
that ``BENCHMARK.json`` names, with its unit, and that the benchmark refuses
to run where the quasinv sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run(tmp_path, "check-stream", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
