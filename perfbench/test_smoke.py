"""Smoke test of the benchmark harness on a tiny run: with seconds=0 each
workload sets up in full and runs one op (one sweep grid value, one verify
row, and on ripple the width-1 carry-propagate add).  Checks the output schema and that every metric
BENCHMARK.json names is reported; sets no wall-time bound.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import GOLDEN

NAMES = list(run.WORKLOADS)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_output(out: dict, names: list[str]) -> None:
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert out["failed"] == 0
    assert sorted(out["metrics"]) == sorted(names)
    for metric in out["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    json.dumps(out)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result = run.measure(name, seed=1, seconds=0)
    units = run.load_units()
    metrics = {k: (v, units[k]) for k, v in result["metrics"].items()}
    names = [m["name"] for m in SPEC["end_to_end"]]
    check_output(run.report({name: result}, metrics, seed=1), names)
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    result = run.measure_traced(name, seed=1, seconds=0)
    units = run.load_units()
    metrics = {k: (v, units[k]) for k, v in result["metrics"].items()}
    names = [m["name"] for m in SPEC["per_layer"]]
    check_output(run.report({name: result}, metrics, seed=1), names)
    assert metrics["sim.solves"][0] >= 1


def test_combined_run_names_fourteen_end_to_end_metrics():
    results = {name: run.measure(name, seed=1, seconds=0) for name in NAMES}
    metrics = run.combined(results, trace=False, units=run.load_units())
    assert len(metrics) == 14
    assert {"sweep.values_per_s", "verify.row_ms.p95", "ripple.failed_share"} <= set(metrics)


def test_golden_sweep_holds_the_frozen_cli_rows():
    path = run.ROOT / "tests" / "test_bench_cli.py"
    spec = importlib.util.spec_from_file_location("frozen_rows", path)
    module = importlib.util.module_from_spec(spec)
    run.fresh_import(run.ROOT / "src")
    spec.loader.exec_module(module)
    golden = (GOLDEN / "sweep.csv").read_text().splitlines()
    for row in module.LOAD_POINT_CSV.splitlines():
        assert row in golden


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
