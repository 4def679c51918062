"""Smoke test of the benchmark runner, bench/run.py.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py

Each workload runs one tiny round.  The test checks that every metric named
in BENCHMARK.json is printed with its unit, that the gates pass on the
unchanged program, that a deliberately wrong reference makes them fail, and
that the runner refuses to run without the madcap sources.
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


def run_bench(workload, trace, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, group):
    result = last_json(run_bench(workload, trace))
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC[group]}
    for m in SPEC[group]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_wrong_reference_fires_gate(workload):
    result = last_json(run_bench(workload, 0, "--perturb-reference"))
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("quadrant", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
