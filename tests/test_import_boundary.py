"""Sequential runs load no Spark, pandas or DuckDB.

``repro.engine.distribute`` and ``repro.oracle`` are the only library
modules that import them when they load; every other module names
``SparkSession`` under ``typing.TYPE_CHECKING`` and reaches Spark through
a lazy ``distribute`` import behind ``if spark is not None``.
``conftest.py`` imports pyspark, so the check runs in a fresh
interpreter.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("pyspark", "py4j", "pandas", "pyarrow", "duckdb")

SCRIPT = f"""
import sys

sys.path.insert(0, {str(ROOT / "jobs")!r})
import _common, tables  # the jobs' shared glue and the table job
import repro.experiments.tables
from repro import synth_data as sd
from repro.core.dendrogram import dendrogram_topdown
from repro.core.emst import emst_delaunay, emst_gfk, emst_memogfk, emst_naive
from repro.core.hdbscan import hdbscan_mst
from repro.core.optics import optics_approx_mst

pts = sd.uniform_fill(300, 2, seed=1)
for solve in (emst_naive, emst_gfk, emst_memogfk, emst_delaunay):
    assert solve(pts)[0].shape == (299, 3), solve.__name__
edges = hdbscan_mst(pts, 5)[0]
assert dendrogram_topdown(edges).reachability()[0].size == 300
assert optics_approx_mst(pts, 5)[0].shape == (299, 3)
print(" ".join(sorted({{m.split(".")[0] for m in sys.modules}} & set({HEAVY!r}))))
"""


def test_sequential_solves_load_no_spark_pandas_or_duckdb():
    path = os.pathsep.join(
        p for p in [str(ROOT / "src"), os.environ.get("PYTHONPATH")] if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    assert out.strip() == "", f"loaded: {out.strip()}"
