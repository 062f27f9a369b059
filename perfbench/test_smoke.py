"""Smoke test of the benchmark itself, one round per workload.

Run from the root of the checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_metrics_and_reproducible_output(workload):
    record, first = result(workload, 5, 0)
    assert set(first) == {"correct", "attempted", "failed", "metrics"}
    assert first["correct"] and first["failed"] == 0 and record["fail_share"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in first["metrics"].values())
    assert set(record["environment"]) >= {"python", "numpy", "nproc", "cpu_model", "git_commit"}

    again, _ = result(workload, 5, 0)
    assert again["output_sha256"] == record["output_sha256"]
    other, _ = result(workload, 6, 0)
    assert other["output_sha256"] != record["output_sha256"]

    traced_record, traced = result(workload, 5, 1)
    assert traced["correct"] and traced["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == expected
    assert traced_record["output_sha256"] == record["output_sha256"]
    focus = traced["metrics"][f"focus.{workload}.share"]["value"]
    assert focus > 0.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
