"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload must report every metric ``BENCHMARK.json`` names, with
its unit, and no failed operation; two traced runs of one workload and
seed must give identical counts; and the benchmark must refuse to run
outside a repository checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from layers import COUNT_METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    CONTRACT = json.load(_f)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(workload: str, trace: int, cwd: str = ROOT,
         seed: int = 5) -> subprocess.CompletedProcess:
    cmd = CONTRACT["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stderr
    assert out["attempted"] >= 1
    return out


def _check_metrics(metrics: dict, expected: list) -> None:
    assert set(metrics) == {m["name"] for m in expected}
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = _result(_run(workload, trace=0))
    _check_metrics(out["metrics"], CONTRACT["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = _result(_run(workload, trace=1))
    second = _result(_run(workload, trace=1))
    _check_metrics(first["metrics"], CONTRACT["per_layer"])
    for name in COUNT_METRICS:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
