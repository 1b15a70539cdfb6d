"""End to end: a tiny pass of every workload prints every metric, and
BENCHMARK.json agrees with the code."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in layers.METRICS.items()
    }
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_of_every_workload_prints_every_metric(trace):
    proc = _run(["--workload", "all", "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--n", "500"])
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(workloads.WORKLOADS) * run.SETUPS * 2
    names = layers.METRICS if trace else run.END_TO_END
    expect = {f"{w}.{m}" for w in workloads.WORKLOADS for m in names}
    assert set(result["metrics"]) == expect
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["unit"]
    for w in workloads.WORKLOADS:
        assert f"{w}: failed_frac 0/" in proc.stdout
        assert f'"workload": "{w}"' in proc.stdout
    if trace:
        assert result["metrics"]["hdbscan-geolife-spark.spark.jobs"]["value"] > 0
        assert result["metrics"]["emst-gfk-uniform3d.wspd.pairs"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "emst-gfk-uniform3d", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
