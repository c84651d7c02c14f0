"""``--quick`` must finish every workload in under five seconds with
no failed operation, traced or not, and print the declared metrics."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent.parent


def manifest():
    with open(PERF.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


WORKLOADS = [w["name"] for w in manifest()["workloads"]]


def quick(workload, trace):
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--quick", "--workload",
         workload, "--seed", "5", "--trace", str(trace),
         "--out", str(PERF / "out" / "quick-test.json")],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced(workload):
    result, elapsed = quick(workload, 0)
    assert elapsed < 5.0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {
        e["name"] for e in manifest()["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, f"{name} must never be 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced(workload):
    result, elapsed = quick(workload, 1)
    assert elapsed < 5.0
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {e["name"] for e in manifest()["per_layer"]}
    durable = workload == "serve_durable"
    assert (metrics["durability.records"]["value"] > 0) == durable
    if workload == "dips_sql":
        assert metrics["rete.join_tests_attempted"]["value"] == 0
        assert metrics["rdb.statements"]["value"] > 0
