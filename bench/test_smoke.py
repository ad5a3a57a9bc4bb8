"""Smoke test of the benchmark: every workload at tiny sizes, traced and untraced.

Not part of the tier-1 suite (pytest collects ``tests/`` by default).  Run with

    python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


# estimate_corpus is held out of BENCHMARK.json (see README.md) but still runs
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["estimate_corpus"]

# counts that must repeat exactly at a fixed seed
REPEATING = ("simulate.events", "simulate.windows", "estimate.evaluations",
             "moments.stationary_m3.calls", "core.intensity_on_grid.points",
             "generator.integrate_moments.calls")


def _result(workload: str, trace: int) -> dict:
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    assert all(m["value"] > 0 for m in _result(workload, 0).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert {k: first[k]["value"] for k in REPEATING} == {k: second[k]["value"] for k in REPEATING}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
