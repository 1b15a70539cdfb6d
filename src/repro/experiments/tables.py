"""Harnesses that regenerate the paper's evaluation tables.

Each ``tableN`` function runs the same methods over the same (scaled)
data sets as the paper's Table N and returns row dictionaries; the
``format_tableN`` helpers print rows shaped like the paper's tables so
EXPERIMENTS.md can diff paper vs. measured numbers side by side.

"1 thread" columns = the sequential NumPy implementations;
"48 cores" columns = the same algorithms with their parallel loops run
as Spark jobs on a local[*] session, one task slot per core (DESIGN.md
§3 gives the mapping and its measurements, on a 4-vCPU host). '-'
cells mean the method is not applicable (Delaunay beyond 2D, and in
the parallel column, where it has no Spark path) or blew the WSPD pair
budget (REPRO_MAX_PAIRS, default 1.5M), the analogue of the paper's
out-of-memory cells.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import SparkSession

from ..core import emst as emst_mod
from ..core.dendrogram import dendrogram_topdown
from ..core.hdbscan import hdbscan_mst
from ..core.wspd import PairBudgetExceeded
from ..graph.boruvka import emst_boruvka
from . import datasets

MAX_PAIRS = int(os.environ.get("REPRO_MAX_PAIRS", "1500000"))

EMST_METHODS = ["EMST-Naive", "EMST-GFK", "EMST-MemoGFK", "Delaunay"]
HDBSCAN_METHODS = ["HDBSCAN*-MemoGFK", "HDBSCAN*-GanTao"]


@dataclass
class Cell:
    """One (data set, method) measurement: seconds or a '-' note."""

    seq: float | None = None
    par: float | None = None
    note: str = ""
    stats: dict = field(default_factory=dict)

    @staticmethod
    def fmt(v: float | None) -> str:
        return f"{v:.2f}" if v is not None else "-"


def _run_emst(method: str, pts: np.ndarray, spark: SparkSession | None):
    if method == "EMST-Naive":
        return emst_mod.emst_naive(pts, spark=spark, max_pairs=MAX_PAIRS)
    if method == "EMST-GFK":
        return emst_mod.emst_gfk(pts, spark=spark, max_pairs=MAX_PAIRS)
    if method == "EMST-MemoGFK":
        return emst_mod.emst_memogfk(pts, spark=spark)
    if method == "Delaunay":
        return emst_mod.emst_delaunay(pts)
    raise ValueError(method)


def table3(names: list[str] | None = None) -> dict[str, Cell]:
    """Table 3: sequential dual-tree Boruvka EMST times (the mlpack
    baseline stand-in; see DESIGN.md §2)."""
    out: dict[str, Cell] = {}
    for name in names or datasets.ALL_DATASETS:
        pts = datasets.load(name)
        t0 = time.perf_counter()
        edges = emst_boruvka(pts)
        cell = Cell(seq=time.perf_counter() - t0)
        cell.stats["mst_weight"] = float(edges[:, 2].sum())
        out[name] = cell
    return out


def table4(
    spark: SparkSession | None,
    names: list[str] | None = None,
    methods: list[str] | None = None,
) -> dict[str, dict[str, Cell]]:
    """Table 4: EMST running times (sequential and Spark-parallel) for
    Naive / GFK / MemoGFK / Delaunay(2D)."""
    out: dict[str, dict[str, Cell]] = {}
    for name in names or datasets.ALL_DATASETS:
        pts = datasets.load(name)
        row: dict[str, Cell] = {}
        ref_weight = None
        for method in methods or EMST_METHODS:
            cell = Cell()
            if method == "Delaunay" and pts.shape[1] != 2:
                cell.note = "2D only"
                row[method] = cell
                continue
            par = None if method == "Delaunay" else spark
            try:
                t0 = time.perf_counter()
                edges, stats = _run_emst(method, pts, None)
                cell.seq = time.perf_counter() - t0
                t0 = time.perf_counter()
                edges_p, _ = _run_emst(method, pts, par) if par else (edges, stats)
                cell.par = time.perf_counter() - t0 if par else None
                w = float(edges[:, 2].sum())
                cell.stats = {
                    "mst_weight": w,
                    "pairs": stats.pairs_materialized,
                    "bccp": stats.bccp_computed,
                    "rounds": stats.rounds,
                }
                if ref_weight is None:
                    ref_weight = w
                elif not np.isclose(w, ref_weight):
                    cell.note = f"WEIGHT MISMATCH {w} vs {ref_weight}"
                if par and not np.isclose(float(edges_p[:, 2].sum()), w):
                    cell.note = "PARALLEL WEIGHT MISMATCH"
            except PairBudgetExceeded:
                cell.note = f"pair budget {MAX_PAIRS}"
            row[method] = cell
        out[name] = row
    return out


def table5(
    spark: SparkSession | None,
    names: list[str] | None = None,
    min_pts: int = 10,
) -> dict[str, dict[str, Cell]]:
    """Table 5: HDBSCAN* times (MST of the mutual reachability graph +
    ordered dendrogram, as in the paper) for the new-definition MemoGFK
    method vs the exact GanTao baseline."""
    out: dict[str, dict[str, Cell]] = {}
    for name in names or datasets.ALL_DATASETS:
        pts = datasets.load(name)
        row: dict[str, Cell] = {}
        ref_weight = None
        for method_name, key in [
            ("HDBSCAN*-MemoGFK", "memogfk"),
            ("HDBSCAN*-GanTao", "gantao"),
        ]:
            cell = Cell()
            t0 = time.perf_counter()
            edges, cd, stats = hdbscan_mst(pts, min_pts, method=key)
            dend = dendrogram_topdown(edges, 0)
            cell.seq = time.perf_counter() - t0
            if spark:
                t0 = time.perf_counter()
                edges_p, _, _ = hdbscan_mst(pts, min_pts, method=key, spark=spark)
                dendrogram_topdown(edges_p, 0, spark=spark)
                cell.par = time.perf_counter() - t0
                if not np.isclose(
                    float(edges_p[:, 2].sum()), float(edges[:, 2].sum())
                ):
                    cell.note = "PARALLEL WEIGHT MISMATCH"
            w = float(edges[:, 2].sum())
            cell.stats = {
                "mst_weight": w,
                "pairs": stats.pairs_materialized,
                "bccp": stats.bccp_computed,
                "dend_root": int(dend.root),
            }
            if ref_weight is None:
                ref_weight = w
            elif not np.isclose(w, ref_weight):
                cell.note = f"WEIGHT MISMATCH {w} vs {ref_weight}"
            row[method_name] = cell
        out[name] = row
    return out


def table2(
    t4: dict[str, dict[str, Cell]], t5: dict[str, dict[str, Cell]]
) -> dict[str, dict[str, float]]:
    """Table 2: per method, range/average of (a) parallel speedup over
    the best sequential time of *any* method on that data set, and (b)
    self-relative speedup — computed exactly as in the paper, from the
    Table 4/5 measurements."""
    merged: dict[str, dict[str, Cell]] = {}
    for name, row in t4.items():
        merged.setdefault(name, {}).update(row)
    for name, row in t5.items():
        merged.setdefault(name, {}).update(row)

    out: dict[str, dict[str, float]] = {}
    for method in EMST_METHODS + HDBSCAN_METHODS:
        over_best: list[float] = []
        self_rel: list[float] = []
        for name, row in merged.items():
            cell = row.get(method)
            if cell is None or cell.seq is None or not cell.par:
                continue
            group = EMST_METHODS if method in EMST_METHODS else HDBSCAN_METHODS
            seqs = [
                row[m].seq for m in group if m in row and row[m].seq is not None
            ]
            over_best.append(min(seqs) / cell.par)
            self_rel.append(cell.seq / cell.par)
        if over_best:
            out[method] = {
                "over_best_min": min(over_best),
                "over_best_max": max(over_best),
                "over_best_avg": float(np.mean(over_best)),
                "self_min": min(self_rel),
                "self_max": max(self_rel),
                "self_avg": float(np.mean(self_rel)),
            }
    return out


def format_table3(rows: dict[str, Cell]) -> str:
    lines = ["Table 3 (reproduction): sequential dual-tree Boruvka EMST (s)"]
    for name, cell in rows.items():
        lines.append(f"  {datasets.display_name(name):26s} {Cell.fmt(cell.seq):>8s}")
    return "\n".join(lines)


def format_table4(rows: dict[str, dict[str, Cell]]) -> str:
    methods = EMST_METHODS
    head = f"  {'data set':26s}" + "".join(
        f" | {m:>12s} seq/par" for m in methods
    )
    lines = ["Table 4 (reproduction): EMST times (s)", head]
    for name, row in rows.items():
        cells = []
        for m in methods:
            c = row.get(m, Cell())
            cells.append(f" | {Cell.fmt(c.seq):>9s}/{Cell.fmt(c.par):>9s}")
        lines.append(f"  {datasets.display_name(name):26s}" + "".join(cells))
    return "\n".join(lines)


def format_table5(rows: dict[str, dict[str, Cell]]) -> str:
    head = f"  {'data set':26s}" + "".join(
        f" | {m:>16s} seq/par" for m in HDBSCAN_METHODS
    )
    lines = ["Table 5 (reproduction): HDBSCAN* times, minPts=10 (s)", head]
    for name, row in rows.items():
        cells = []
        for m in HDBSCAN_METHODS:
            c = row.get(m, Cell())
            cells.append(f" | {Cell.fmt(c.seq):>9s}/{Cell.fmt(c.par):>9s}")
        lines.append(f"  {datasets.display_name(name):26s}" + "".join(cells))
    return "\n".join(lines)


def format_table2(rows: dict[str, dict[str, float]]) -> str:
    lines = [
        "Table 2 (reproduction): speedup over best sequential / self-relative",
        f"  {'method':18s} {'over-best range':>20s} {'avg':>7s} {'self range':>18s} {'avg':>7s}",
    ]
    for m, r in rows.items():
        lines.append(
            f"  {m:18s} {r['over_best_min']:8.2f}-{r['over_best_max']:.2f}x"
            f" {r['over_best_avg']:6.2f}x"
            f" {r['self_min']:8.2f}-{r['self_max']:.2f}x {r['self_avg']:6.2f}x"
        )
    return "\n".join(lines)
