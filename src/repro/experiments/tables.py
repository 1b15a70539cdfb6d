"""Harnesses that regenerate the paper's evaluation tables.

Each ``tableN`` function (and ``appendix_c``) maps the methods of the
paper's Table N to the calls that run them, and ``run_cells`` times
every (data set, method) cell over the same (scaled) data sets;
``format_table`` prints the rows shaped like the paper's tables so
EXPERIMENTS.md can diff paper vs. measured numbers side by side.
``jobs/tables.py`` is the command line over them.

"1 thread" columns = the sequential NumPy implementations;
"48 cores" columns = the same algorithms with their parallel loops run
as Spark jobs on a local[*] session, one task slot per core (DESIGN.md
§3 gives the mapping and its measurements, on a 4-vCPU host). '-'
cells mean the method is not applicable (Delaunay beyond 2D, and in
the parallel column, where it has no Spark path) or blew the WSPD pair
budget (REPRO_MAX_PAIRS, default 1.5M), the analogue of the paper's
out-of-memory cells; the note under the table says which.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from ..core import emst as emst_mod
from ..core.dendrogram import dendrogram_topdown
from ..core.hdbscan import hdbscan_mst
from ..core.optics import optics_approx_mst
from ..core.wspd import PairBudgetExceeded
from ..graph.boruvka import emst_boruvka
from . import datasets

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

MAX_PAIRS = int(os.environ.get("REPRO_MAX_PAIRS", "1500000"))

EMST_METHODS = ["EMST-Naive", "EMST-GFK", "EMST-MemoGFK", "Delaunay"]
HDBSCAN_METHODS = ["HDBSCAN*-MemoGFK", "HDBSCAN*-GanTao"]
APPENDIX_C_METHODS = ["OPTICS-approx", "HDBSCAN*-GanTao", "HDBSCAN*-MemoGFK"]
APPENDIX_C_DATASETS = ["2D-UniformFill", "2D-SS-varden"]
OPTICS_RHO = 0.125

TITLES = {
    "3": "Table 3 (reproduction): sequential Boruvka EMST on the k-NN blocks (s)",
    "4": "Table 4 (reproduction): EMST times (s)",
    "5": "Table 5 (reproduction): HDBSCAN* times, minPts={min_pts} (s)",
    "C": f"Appendix C (reproduction): approximate OPTICS, rho={OPTICS_RHO},"
    " vs exact HDBSCAN* MSTs (s)",
}


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


class Method(NamedTuple):
    """How a table runs one method. ``run(pts, spark)`` returns a tuple
    whose first item is the MST edges and whose last is its GfkStats
    (or None); ``spark`` is None in the sequential run."""

    run: Callable[[np.ndarray, SparkSession | None], tuple]
    par: bool = True  # has a Spark run
    exact: bool = True  # its MST weight must equal the other exact methods'
    dims: int | None = None  # runs only on data of this dimension


def run_cells(
    methods: dict[str, Method],
    names: list[str],
    spark: SparkSession | None = None,
) -> dict[str, dict[str, Cell]]:
    """Time every (data set, method) cell: the sequential run, then the
    Spark run when ``spark`` is given and the method has one. A cell
    records its MST weight and the GfkStats counts, and at most one
    note: why it did not run, or that its weight differs from the
    first exact method's (or its Spark run's from its own)."""
    out: dict[str, dict[str, Cell]] = {}
    for name in names:
        pts = datasets.load(name)
        row = out[name] = {}
        ref_weight = None
        for m, method in methods.items():
            cell = row[m] = Cell()
            if method.dims is not None and pts.shape[1] != method.dims:
                cell.note = f"{method.dims}D only"
                continue
            try:
                t0 = time.perf_counter()
                result = method.run(pts, None)
            except PairBudgetExceeded:
                cell.note = f"pair budget {MAX_PAIRS}"
                continue
            cell.seq = time.perf_counter() - t0
            w = float(result[0][:, 2].sum())
            cell.stats["mst_weight"] = w
            if (stats := result[-1]) is not None:
                cell.stats.update(
                    pairs=stats.pairs_materialized,
                    bccp=stats.bccp_computed,
                    rounds=stats.rounds,
                    visits=stats.visits,
                )
            if method.exact:
                if ref_weight is None:
                    ref_weight = w
                elif not np.isclose(w, ref_weight):
                    cell.note = f"WEIGHT MISMATCH {w} vs {ref_weight}"
            if spark is not None and method.par:
                t0 = time.perf_counter()
                edges_p = method.run(pts, spark)[0]
                cell.par = time.perf_counter() - t0
                if not np.isclose(float(edges_p[:, 2].sum()), w):
                    cell.note = "PARALLEL WEIGHT MISMATCH"
    return out


def table3(names: list[str] | None = None) -> dict[str, dict[str, Cell]]:
    """Table 3: sequential Boruvka EMST times (the mlpack
    baseline stand-in; see DESIGN.md §2)."""
    boruvka = Method(lambda pts, _: (emst_boruvka(pts), None))
    return run_cells({"Boruvka": boruvka}, names or datasets.ALL_DATASETS)


def table4(
    spark: SparkSession | None,
    names: list[str] | None = None,
    methods: list[str] | None = None,
) -> dict[str, dict[str, Cell]]:
    """Table 4: EMST running times (sequential and Spark-parallel) for
    Naive / GFK / MemoGFK / Delaunay(2D)."""
    runs = {
        "EMST-Naive": Method(partial(emst_mod.emst_naive, max_pairs=MAX_PAIRS)),
        "EMST-GFK": Method(partial(emst_mod.emst_gfk, max_pairs=MAX_PAIRS)),
        "EMST-MemoGFK": Method(emst_mod.emst_memogfk),
        "Delaunay": Method(
            lambda pts, _: emst_mod.emst_delaunay(pts), par=False, dims=2
        ),
    }
    chosen = {m: runs[m] for m in methods or EMST_METHODS}
    return run_cells(chosen, names or datasets.ALL_DATASETS, spark)


def table5(
    spark: SparkSession | None,
    names: list[str] | None = None,
    min_pts: int = 10,
) -> dict[str, dict[str, Cell]]:
    """Table 5: HDBSCAN* times (MST of the mutual reachability graph +
    ordered dendrogram, as in the paper) for the new-definition MemoGFK
    method vs the exact GanTao baseline."""

    def mst_and_dendrogram(key: str) -> Method:
        def run(pts, spark):
            edges, _, stats = hdbscan_mst(pts, min_pts, method=key, spark=spark)
            dendrogram_topdown(edges, 0, spark=spark)
            return edges, stats

        return Method(run)

    runs = {
        "HDBSCAN*-MemoGFK": mst_and_dendrogram("memogfk"),
        "HDBSCAN*-GanTao": mst_and_dendrogram("gantao"),
    }
    return run_cells(runs, names or datasets.ALL_DATASETS, spark)


def appendix_c(
    names: list[str] | None = None, min_pts: int = 10
) -> dict[str, dict[str, Cell]]:
    """Appendix C: the approximate OPTICS MST (rho = 0.125, so the WSPD
    uses s = 8) against the two exact HDBSCAN* MSTs (the MST only, no
    dendrogram), sequential only. The paper finds it 1.00-1.96x slower
    than GanTao and 1.72-7.48x slower than MemoGFK, because s = 8
    inflates the WSPD."""
    runs = {
        "OPTICS-approx": Method(
            lambda pts, _: optics_approx_mst(pts, min_pts, rho=OPTICS_RHO),
            exact=False,
        ),
        "HDBSCAN*-GanTao": Method(
            lambda pts, _: hdbscan_mst(pts, min_pts, method="gantao")
        ),
        "HDBSCAN*-MemoGFK": Method(
            lambda pts, _: hdbscan_mst(pts, min_pts, method="memogfk")
        ),
    }
    return run_cells(runs, names or APPENDIX_C_DATASETS)


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


def format_table(title: str, rows: dict[str, dict[str, Cell]]) -> str:
    """Tables 3, 4, 5 and C: one column per method, seq/par when any
    cell has a Spark time, each as wide as its header or its widest
    cell; then every cell's note as ``[data set / method] note``."""
    methods = list(next(iter(rows.values()), {}))
    par = any(c.par is not None for row in rows.values() for c in row.values())
    grid = [["data set"] + [f"{m} seq/par" if par else m for m in methods]]
    for name, row in rows.items():
        cells = [Cell.fmt(row[m].seq) for m in methods]
        if par:
            cells = [f"{s}/{Cell.fmt(row[m].par)}" for s, m in zip(cells, methods)]
        grid.append([datasets.display_name(name)] + cells)
    widths = [max(map(len, col)) for col in zip(*grid)]
    lines = [title]
    for label, *cells in grid:
        lines.append(
            f"  {label:{widths[0]}s}"
            + "".join(f" | {c:>{w}s}" for c, w in zip(cells, widths[1:]))
        )
    for name, row in rows.items():
        lines += [f"  [{name} / {m}] {c.note}" for m, c in row.items() if c.note]
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
