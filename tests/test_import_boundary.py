"""Sequential runs load no Spark, pandas or DuckDB.

``repro.engine.distribute`` is the Spark boundary only: it loads pyspark
but neither pandas nor pyarrow. ``repro.oracle`` (the DuckDB oracle)
imports pandas when it loads, and ``synth_data.points_pdf`` when it is
called. Every other module names ``SparkSession`` under
``typing.TYPE_CHECKING`` and reaches Spark through a lazy ``distribute``
import behind ``if spark is not None``. ``conftest.py`` imports pyspark,
so each check runs in a fresh interpreter.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HEAVY = ("pyspark", "py4j", "pandas", "pyarrow", "duckdb")

REPORT = f"""
import sys
print(" ".join(sorted({{m.split(".")[0] for m in sys.modules}} & set({HEAVY!r}))))
"""

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
"""


def heavy_modules_loaded(script: str) -> str:
    """The HEAVY top-level packages loaded once ``script`` has run in a
    fresh interpreter with ``src/`` on the path."""
    path = os.pathsep.join(
        p for p in [str(ROOT / "src"), os.environ.get("PYTHONPATH")] if p
    )
    return subprocess.run(
        [sys.executable, "-c", script + REPORT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout.strip()


def test_sequential_solves_load_no_spark_pandas_or_duckdb():
    out = heavy_modules_loaded(SCRIPT)
    assert out == "", f"loaded: {out}"


def test_spark_boundary_loads_no_pandas_or_pyarrow():
    out = heavy_modules_loaded("import repro.engine.distribute\n")
    assert out == "py4j pyspark", f"loaded: {out}"
