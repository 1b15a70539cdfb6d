"""Spark fan-out of the paper's shared-memory parallel loops.

The paper runs on a 48-core Cilk machine; every parallel-for over
independent heavy kernels (BCCP batches, k-NN block ranges, dendrogram
bands) maps here onto one Spark job of one stage:

* ``_deal`` deals the work items, heaviest first, round-robin into one
  group per executor core;
* ``_fan_out`` sends each group pickled in its own row, which Spark
  makes its own partition, so ``mapInPandas`` runs one task per group,
  calling the same NumPy kernel the sequential path calls (no shuffle);
  a fan-out that needs the kd-tree (with its reordered points and core
  distances) has ``_fan_out`` broadcast it for that one job, and
  unpersist it when the job ends, whether or not it raised;
* the results come back to the driver in group order, where each
  caller scatters them to its items and runs Kruskal there
  (vectorized, ``graph/kruskal.py``).

Granularity control, as in the paper's parallel loops: each fan-out
runs on the driver below a break-even amount of work, set from a
driver-vs-Spark measurement (DESIGN.md, Section 3) because a Spark job
has a fixed cost of about a third of a second.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.bccp import bccp_batch
from ..core.dendrogram import solve_subproblem_kernel
from ..geometry.kdtree import KDTree

# Break-evens, measured on local[4] with jobs/break_even.py (DESIGN.md,
# Section 3): below these the driver finishes before a Spark job would.
# The BCCP* and dendrogram constants sit just above the largest work
# measured, at 80 000 points; the driver won every row up to there.
_MIN_PARALLEL_CELLS = 500_000_000  # BCCP*: cross cells a batch can spread
_MIN_PARALLEL_POINTS = 20_000  # k-NN: points
_MIN_PARALLEL_EDGES = 80_000  # dendrogram: band edges


def _deal(weights: np.ndarray, parts: int) -> list[np.ndarray]:
    """Indices of ``weights`` dealt heaviest first, round-robin, into
    min(len(weights), parts) groups: no two group totals differ by more
    than the largest weight."""
    order = np.argsort(-np.asarray(weights), kind="stable")
    p = min(order.size, parts)
    return [order[g::p] for g in range(p)]


def _fan_out(spark: SparkSession, groups: list, kernel, tree: KDTree | None = None) -> list:
    """``kernel(group)`` for every group, in group order, as one Spark
    job of one ``mapInPandas`` stage. Each group travels pickled in its
    own row, and so does its result; Spark cuts a local DataFrame of at
    most ``defaultParallelism`` rows (as ``_deal`` makes them) into one
    partition, so one task, per row. A ``tree`` is broadcast for this
    job only, and unpersisted when it ends, whether or not it raised;
    the kernel is then called as ``kernel(tree, group)``."""
    rows = pd.DataFrame(
        {"g": np.arange(len(groups)), "blob": [pickle.dumps(group) for group in groups]}
    )
    bc = None if tree is None else spark.sparkContext.broadcast(tree)

    def run(batches):
        head = () if bc is None else (bc.value,)
        for pdf in batches:
            blobs = [pickle.dumps(kernel(*head, pickle.loads(bytes(b)))) for b in pdf["blob"]]
            yield pd.DataFrame({"g": pdf["g"], "blob": blobs})

    try:
        res = spark.createDataFrame(rows).mapInPandas(run, "g long, blob binary").toPandas()
    finally:
        if bc is not None:
            bc.unpersist()
    out = [None] * len(groups)
    for g, blob in zip(res["g"], res["blob"]):
        out[int(g)] = pickle.loads(bytes(blob))
    return out


def spread_cells(cells: np.ndarray) -> int:
    """Cross cells of a BCCP batch outside its largest pair: an executor
    takes each pair whole, so only these can be spread over executors."""
    return int(cells.sum() - cells.max())


class SparkBccp:
    """Distributes BCCP / BCCP* batches for GFK and MemoGFK rounds: each
    batch that reaches the break-even is one ``_fan_out`` job over
    ``tree``; smaller ones run on the driver."""

    def __init__(self, spark: SparkSession, tree: KDTree):
        self.spark = spark
        self.tree = tree

    def bccp_many(self, pairs: np.ndarray, star: bool = False) -> np.ndarray:
        """BCCP (or BCCP*) of each (node_a, node_b) row of ``pairs``.

        Returns the (k, 3) [u, v, w] edges in the order of ``pairs``,
        u, v in original ids. Executors run ``bccp_batch`` on their
        share of the pairs, exactly as the driver would.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        t = self.tree
        sz = t.hi - t.lo
        cells = sz[pairs[:, 0]] * sz[pairs[:, 1]]
        if pairs.shape[0] < 2 or spread_cells(cells) < _MIN_PARALLEL_CELLS:
            return bccp_batch(t, pairs[:, 0], pairs[:, 1], star)
        groups = _deal(cells, self.spark.sparkContext.defaultParallelism)

        def kernel(tree, ab):
            return bccp_batch(tree, ab[:, 0], ab[:, 1], star)

        out = np.empty((pairs.shape[0], 3))
        for g, e in zip(groups, _fan_out(self.spark, [pairs[g] for g in groups], kernel, t)):
            out[g] = e
        return out


def core_distances_spark(spark: SparkSession, tree: KDTree, min_pts: int) -> np.ndarray:
    """Parallel core distances over the run's ``tree``: fan its k-NN
    blocks out in contiguous ranges, each solved by
    ``block_kth_distances`` as on the driver.

    Mirrors the paper's parallel k-NN step (Section 3.2.1); returns
    cd[i] for every original point id i.
    """
    from ..geometry.knn import block_kth_distances, blocks, core_distances

    n = tree.n
    if n < _MIN_PARALLEL_POINTS:
        return core_distances(tree, min_pts)
    if not 1 <= min_pts <= n:
        raise ValueError("minPts must be between 1 and the number of points")
    n_blocks = blocks(tree).size
    par = spark.sparkContext.defaultParallelism
    bounds = np.linspace(0, n_blocks, min(4 * par, n_blocks) + 1, dtype=np.int64)
    k = int(min_pts)

    def kernel(t, ranges):
        every = blocks(t)
        return [block_kth_distances(t, every[a:z], k) for a, z in ranges]

    groups = _deal(np.diff(bounds), par)
    results = _fan_out(
        spark, [np.column_stack([bounds[g], bounds[g + 1]]) for g in groups], kernel, tree
    )
    # The ranges tile the point rows in order.
    by_range = [None] * (bounds.size - 1)
    for g, cds in zip(groups, results):
        for r, cd in zip(g, cds):
            by_range[r] = cd
    out = np.empty(n)
    out[tree.perm] = np.concatenate(by_range)
    return out


def run_payloads_spark(spark: SparkSession, bands: list) -> list:
    """Dendrogram band fan-out: ``solve_subproblem_kernel`` over the
    (t, lu, lv, refs) bands of ``dendrogram._bands``, dealt by edge
    count to executors once their edges reach the break-even; returns
    each band's (left, right) in the order of ``bands``.
    """
    edges = np.array([band[1].size for band in bands], dtype=np.int64)
    if int(edges.sum()) < _MIN_PARALLEL_EDGES:
        return solve_subproblem_kernel(bands)
    groups = _deal(edges, spark.sparkContext.defaultParallelism)
    results = _fan_out(spark, [[bands[i] for i in g] for g in groups], solve_subproblem_kernel)
    out = [None] * len(bands)
    for g, solved in zip(groups, results):
        for i, res in zip(g, solved):
            out[i] = res
    return out
