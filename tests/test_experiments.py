"""Experiment harness integration: the table generators must run end to
end on scaled-down data sets, produce internally consistent cells, and
never report cross-method weight mismatches."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import datasets, tables


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Shrink every registered data set ~50x for these tests."""
    monkeypatch.setattr(datasets, "_SCALE", 0.02)


def test_dataset_registry_complete():
    assert len(datasets.ALL_DATASETS) == 12
    for name in datasets.ALL_DATASETS:
        pts = datasets.load(name)
        d = int(name.split("D-")[0])
        assert pts.shape == (datasets.dataset_size(name), d)
        assert datasets.display_name(name).startswith(name)


def test_load_deterministic():
    a = datasets.load("3D-SS-varden")
    b = datasets.load("3D-SS-varden")
    assert np.array_equal(a, b)


def _assert_aligned(out: str) -> None:
    """Every '|' of the header line sits where it does in each data row."""
    lines = out.splitlines()
    head = next(i for i, line in enumerate(lines) if "data set" in line)
    bars = [i for i, ch in enumerate(lines[head]) if ch == "|"]
    rows = [line for line in lines[head + 1:] if not line.lstrip().startswith("[")]
    assert bars and rows
    for row in rows:
        assert [i for i, ch in enumerate(row) if ch == "|"] == bars, row


def test_table3_runs():
    rows = tables.table3(["2D-UniformFill", "3D-GeoLife"])
    assert set(rows) == {"2D-UniformFill", "3D-GeoLife"}
    for row in rows.values():
        (cell,) = row.values()
        assert cell.seq is not None and cell.seq > 0
        assert cell.stats["mst_weight"] > 0
    assert "Boruvka" in tables.format_table(tables.TITLES["3"], rows)


def test_table4_runs_and_methods_agree(spark):
    rows = tables.table4(spark, ["2D-UniformFill", "16D-CHEM"])
    for name, row in rows.items():
        weights = set()
        for m, cell in row.items():
            assert "MISMATCH" not in cell.note, (name, m, cell.note)
            if cell.stats:
                weights.add(round(cell.stats["mst_weight"], 6))
        assert len(weights) == 1  # every method found the same MST weight
    assert rows["16D-CHEM"]["Delaunay"].note == "2D only"
    out = tables.format_table(tables.TITLES["4"], rows)
    assert "EMST-MemoGFK seq/par" in out
    _assert_aligned(out)


def test_table5_runs_and_methods_agree(spark):
    rows = tables.table5(spark, ["3D-SS-varden"], min_pts=10)
    row = rows["3D-SS-varden"]
    w1 = row["HDBSCAN*-MemoGFK"].stats["mst_weight"]
    w2 = row["HDBSCAN*-GanTao"].stats["mst_weight"]
    assert np.isclose(w1, w2)
    for cell in row.values():
        assert "MISMATCH" not in cell.note
        assert cell.seq is not None and cell.par is not None
    out = tables.format_table(tables.TITLES["5"].format(min_pts=10), rows)
    assert "HDBSCAN*-GanTao seq/par" in out
    assert datasets.display_name("3D-SS-varden") in out
    _assert_aligned(out)


def test_table2_derivation(spark):
    t4 = tables.table4(spark, ["2D-UniformFill"])
    t5 = tables.table5(spark, ["2D-UniformFill"])
    t2 = tables.table2(t4, t5)
    for method, r in t2.items():
        assert r["over_best_min"] <= r["over_best_max"]
        assert r["self_min"] <= r["self_max"]
        assert r["over_best_avg"] > 0
    assert t2, "no method produced parallel timings"
    assert "speedup" in tables.format_table2(t2)


def test_pair_budget_cell(monkeypatch, spark):
    """A method that blows the pair budget must produce a '-' cell, not
    an exception (the paper's out-of-memory analogue)."""
    monkeypatch.setattr(tables, "MAX_PAIRS", 10)
    rows = tables.table4(None, ["2D-UniformFill"], methods=["EMST-Naive"])
    cell = rows["2D-UniformFill"]["EMST-Naive"]
    assert cell.seq is None and "pair budget" in cell.note


def test_formatted_table_prints_every_note(monkeypatch):
    """A '-' cell says why under its table: the pair budget, or that the
    method does not run on the data set."""
    monkeypatch.setattr(tables, "MAX_PAIRS", 10)
    rows = tables.table4(None, ["2D-UniformFill", "16D-CHEM"])
    out = tables.format_table(tables.TITLES["4"], rows)
    for name in ["2D-UniformFill", "16D-CHEM"]:
        for m in ["EMST-Naive", "EMST-GFK"]:
            assert f"  [{name} / {m}] pair budget 10" in out.splitlines()
    assert "  [16D-CHEM / Delaunay] 2D only" in out.splitlines()
    assert "[2D-UniformFill / Delaunay]" not in out
    _assert_aligned(out)


def test_appendix_c_optics_within_its_bound():
    """Appendix C: the exact methods agree, and the approximate OPTICS
    MST weighs between exact / (1 + rho) and exact."""
    rows = tables.appendix_c()
    assert set(rows) == set(tables.APPENDIX_C_DATASETS)
    for name, row in rows.items():
        assert list(row) == tables.APPENDIX_C_METHODS
        assert not any(c.note for c in row.values()), name
        exact = row["HDBSCAN*-GanTao"].stats["mst_weight"]
        assert np.isclose(row["HDBSCAN*-MemoGFK"].stats["mst_weight"], exact)
        approx = row["OPTICS-approx"].stats["mst_weight"]
        assert approx <= exact * (1 + 1e-9), name
        assert approx >= exact / (1 + tables.OPTICS_RHO) - 1e-9, name
    out = tables.format_table(tables.TITLES["C"], rows)
    assert "Appendix C" in out and "HDBSCAN*-MemoGFK" in out
    _assert_aligned(out)


def test_tables_job_prints_table3():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(
        p for p in [str(root / "src"), os.environ.get("PYTHONPATH")] if p
    )
    env = {**os.environ, "REPRO_BENCH_SCALE": "0.02", "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, str(root / "jobs" / "tables.py"), "3", "C",
         "--datasets", "2D-UniformFill"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    lines = out.splitlines()
    assert "Table 3 (reproduction): sequential Boruvka EMST on the k-NN blocks (s)" in lines
    assert "2D-UniformFill-200" in out
    assert "Table 4" not in out
    assert (
        "Appendix C (reproduction): approximate OPTICS, rho=0.125,"
        " vs exact HDBSCAN* MSTs (s)"
    ) in lines
    for label in [
        "OPTICS slowdown vs GanTao/MemoGFK", "OPTICS-approx WSPD pairs (s=8)"
    ]:
        prefix = f"  [2D-UniformFill] {label} = "
        assert any(line.startswith(prefix) for line in lines), label
