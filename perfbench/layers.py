"""Which program names the traced run wraps, and the per-layer metrics.

Each entry of ``PATCHES`` names a function on the module (or class)
where its caller looks it up, so wrapping it there puts a span around
every call the solve makes. ``METRICS`` lists every per-layer metric
with the end-to-end metric and workloads it should move.
"""
from __future__ import annotations

import importlib

import numpy as np

SMALL_PAIR_CELLS = 64

# (module, attribute (``Class.method`` for a method), span name)
PATCHES = [
    ("repro.geometry.kdtree", "build", "kdtree.build"),
    ("repro.core.hdbscan", "core_distances", "knn.core_distances"),
    ("repro.core.emst", "wspd", "wspd.materialize"),
    ("repro.core.emst", "gfk_mst", "gfk.mst"),
    ("repro.core.emst", "memogfk_mst", "memogfk.mst"),
    ("repro.core.hdbscan", "memogfk_mst", "memogfk.mst"),
    ("repro.core.gfk", "mono_labels", "mono_labels"),
    ("repro.core.memogfk", "mono_labels", "mono_labels"),
    ("repro.core.memogfk", "get_rho", "memogfk.get_rho"),
    ("repro.core.memogfk", "get_pairs", "memogfk.get_pairs"),
    ("repro.core.bccp", "bccp", "bccp"),
    ("repro.core.bccp", "bccp_star", "bccp"),
    ("repro.core.gfk", "kruskal_batch", "kruskal.batch"),
    ("repro.core.memogfk", "kruskal_batch", "kruskal.batch"),
    ("repro.core.dendrogram", "dendrogram_topdown", "dendrogram.topdown"),
    ("repro.engine.distribute", "SparkBccp.bccp_many", "spark.bccp_many"),
    ("repro.engine.distribute", "core_distances_spark", "spark.core_distances"),
    ("repro.engine.distribute", "run_payloads_spark", "spark.payloads"),
]

ALL = "both workloads"
GFK = "emst-gfk-uniform3d"
SPARK = "hdbscan-geolife-spark"

# name -> (unit, better, end-to-end metric it should move, on which workloads)
METRICS = {
    "kdtree.build_s": ("s", "lower", "solve_s", ALL),
    "kdtree.build_calls": ("count", "lower", "solve_s", ALL),
    "knn.core_distances_s": ("s", "lower", "solve_s", SPARK),
    "wspd.materialize_s": ("s", "lower", "solve_s, peak_rss_mb", GFK),
    "wspd.pairs": ("count", "lower", "solve_s, peak_rss_mb", GFK),
    "gfk.self_s": ("s", "lower", "solve_s", GFK),
    "gfk.rounds": ("count", "lower", "solve_s", GFK),
    "gfk.mono_labels_s": ("s", "lower", "solve_s", GFK + " (MemoGFK calls counted too)"),
    "memogfk.get_rho_s": ("s", "lower", "solve_s", SPARK),
    "memogfk.get_pairs_self_s": ("s", "lower", "solve_s", SPARK),
    "memogfk.rounds": ("count", "lower", "solve_s", SPARK),
    "memogfk.pairs_peak": ("count", "lower", "solve_s, peak_rss_mb", SPARK),
    "bccp.calls": ("count", "lower", "solve_s", GFK + "; less " + SPARK),
    "bccp.cells": ("count", "lower", "solve_s", GFK + "; less " + SPARK),
    "bccp_s": ("s", "lower", "solve_s", GFK + "; less " + SPARK),
    "bccp.small_call_share": ("ratio", "lower", "solve_s", GFK),
    "bccp.small_cell_share": ("ratio", "lower", "solve_s", GFK),
    "bccp.useful_ratio": ("ratio", "higher", "solve_s", GFK),
    "kruskal.batch_s": ("s", "lower", "solve_s", ALL + " (small)"),
    "kruskal.edges_offered": ("count", "lower", "solve_s", ALL + " (small)"),
    "kruskal.accept_ratio": ("ratio", "higher", "solve_s", ALL + " (small)"),
    "dendrogram.topdown_s": ("s", "lower", "solve_s", SPARK),
    "spark.bccp_many_s": ("s", "lower", "solve_s, setup_s", SPARK),
    "spark.bccp_many_calls": ("count", "lower", "solve_s, setup_s", SPARK),
    "spark.core_distances_s": ("s", "lower", "solve_s, setup_s", SPARK),
    "spark.payloads_s": ("s", "lower", "solve_s, setup_s", SPARK),
    "spark.jobs": ("count", "lower", "solve_s, setup_s", SPARK),
    "spark.tasks": ("count", "lower", "solve_s, setup_s", SPARK),
    "spark.failed_tasks": ("count", "lower", "solve_s", SPARK),
    "trace.solve_s": ("s", "lower", "solve_s (traced)", ALL),
    "trace.overhead_s": ("s", "lower", "traced minus untraced solve_s", ALL),
    "trace.covered_frac": ("ratio", "higher", "share of solve_s inside layer spans", ALL),
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def bindings() -> dict[tuple[str, str], object]:
    """The objects currently bound to every patched name."""
    out = {}
    for module, attr, _ in PATCHES:
        owner, name = _resolve(module, attr)
        out[(module, attr)] = vars(owner)[name]
    return out


def install(tracer) -> None:
    """Wrap every name in ``PATCHES``; undo with ``tracer.restore()``."""
    last = [None, []]  # the tree seen last and its node sizes

    def sizes(tree) -> list[int]:
        if last[0] is not tree:
            last[:] = [tree, (tree.hi - tree.lo).tolist()]
        return last[1]

    def after_bccp(tr, args, result) -> None:
        if tr.current() == "spark.bccp_many":
            return  # counted once, by the fan-out that made the call
        tree, a, b = args[:3]
        sz = sizes(tree)
        tr.sample("bccp.pair_cells", sz[a] * sz[b])

    def after_bccp_many(tr, args, result) -> None:
        ctx, pairs = args[:2]
        sz = sizes(ctx.tree)
        for a, b in pairs:
            tr.sample("bccp.pair_cells", sz[a] * sz[b])

    def after_kruskal(tr, args, accepted) -> None:
        tr.count("kruskal.offered", len(args[0]))
        tr.count("kruskal.accepted", accepted)

    def after_wspd(tr, args, pairs) -> None:
        tr.count("wspd.pairs", pairs.shape[0])

    after = {
        "bccp": after_bccp,
        "spark.bccp_many": after_bccp_many,
        "kruskal.batch": after_kruskal,
        "wspd.materialize": after_wspd,
    }
    try:
        for module, attr, span in PATCHES:
            owner, name = _resolve(module, attr)
            tracer.patch(owner, name, span, after.get(span))
    except BaseException:
        tracer.restore()
        raise


def solve_metrics(tracer, pipeline: str, n: int, stats, spark_counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced solve (everything but the
    ``trace.*`` run-level numbers)."""
    tot = tracer.totals()
    own = tracer.totals(self_time=True)
    calls = tracer.calls()
    cnt = tracer.counters
    cells = np.asarray(tracer.samples.get("bccp.pair_cells", []), dtype=np.int64)
    small = cells <= SMALL_PAIR_CELLS
    memo = pipeline != "emst-gfk"
    return {
        "kdtree.build_s": tot.get("kdtree.build", 0.0),
        "kdtree.build_calls": calls.get("kdtree.build", 0),
        "knn.core_distances_s": tot.get("knn.core_distances", 0.0),
        "wspd.materialize_s": tot.get("wspd.materialize", 0.0),
        "wspd.pairs": cnt.get("wspd.pairs", 0),
        "gfk.self_s": own.get("gfk.mst", 0.0),
        "gfk.rounds": 0 if memo else stats.rounds,
        "gfk.mono_labels_s": tot.get("mono_labels", 0.0),
        "memogfk.get_rho_s": tot.get("memogfk.get_rho", 0.0),
        "memogfk.get_pairs_self_s": own.get("memogfk.get_pairs", 0.0),
        "memogfk.rounds": stats.rounds if memo else 0,
        "memogfk.pairs_peak": stats.pairs_materialized if memo else 0,
        "bccp.calls": stats.bccp_computed,
        "bccp.cells": stats.bccp_work_cells,
        "bccp_s": tot.get("bccp", 0.0),
        "bccp.small_call_share": float(small.mean()) if cells.size else 0.0,
        "bccp.small_cell_share": float(cells[small].sum() / cells.sum()) if cells.size else 0.0,
        "bccp.useful_ratio": (n - 1) / stats.bccp_computed if stats.bccp_computed else 0.0,
        "kruskal.batch_s": tot.get("kruskal.batch", 0.0),
        "kruskal.edges_offered": cnt.get("kruskal.offered", 0),
        "kruskal.accept_ratio": (
            cnt["kruskal.accepted"] / cnt["kruskal.offered"] if cnt.get("kruskal.offered") else 0.0
        ),
        "dendrogram.topdown_s": tot.get("dendrogram.topdown", 0.0),
        "spark.bccp_many_s": tot.get("spark.bccp_many", 0.0),
        "spark.bccp_many_calls": calls.get("spark.bccp_many", 0),
        "spark.core_distances_s": tot.get("spark.core_distances", 0.0),
        "spark.payloads_s": tot.get("spark.payloads", 0.0),
        "spark.jobs": spark_counts.get("jobs", 0),
        "spark.tasks": spark_counts.get("tasks", 0),
        "spark.failed_tasks": spark_counts.get("failed_tasks", 0),
        "trace.covered_frac": 1.0 - own["solve"] / tot["solve"],
    }
