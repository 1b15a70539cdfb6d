"""Spark fan-out of the paper's shared-memory parallel loops.

The paper runs on a 48-core Cilk machine; every parallel-for over
independent heavy kernels (BCCP batches, k-NN block ranges, light-edge
dendrogram subproblems) maps here onto one Spark DataFrame job:

* driver broadcasts the kd-tree (with its reordered points and core
  distances) once per run;
* the work list (node-id pairs, block ranges, pickled subproblems)
  becomes a DataFrame whose rows are ordered so that Spark's own
  partitions are balanced groups (one stage, no shuffle);
* ``mapInPandas`` runs the identical NumPy kernels used by the
  sequential path inside executors;
* results return to the driver, which runs Kruskal there (vectorized,
  ``graph/kruskal.py``).

Granularity control, as in the paper's parallel loops: each fan-out
runs on the driver below a break-even amount of work, set from a
driver-vs-Spark measurement (DESIGN.md, Section 3) because a Spark job
has a fixed cost of about a third of a second.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.bccp import bccp_batch
from ..core.dendrogram import solve_subproblem_kernel
from ..geometry.kdtree import KDTree

# Break-evens, measured on local[4] with jobs/break_even.py (DESIGN.md,
# Section 3): below these the driver finishes before a Spark job would.
# The BCCP* and dendrogram constants sit just above the largest work
# measured, at 80 000 points; the driver won every row up to there.
_MIN_PARALLEL_CELLS = 500_000_000  # BCCP*: cross cells a batch can spread
_MIN_PARALLEL_POINTS = 20_000  # k-NN: points
_MIN_PARALLEL_EDGES = 80_000  # dendrogram: light-subproblem edges of the top level


def _dealt(spark: SparkSession, pdf: pd.DataFrame, weight: np.ndarray) -> DataFrame:
    """``pdf`` as a Spark DataFrame whose partitions are balanced groups:
    heaviest rows first, dealt round-robin.

    Spark cuts a local DataFrame of r rows into p = min(r,
    defaultParallelism) partitions, partition s holding rows
    [s r // p, (s + 1) r // p), so ordering the rows is enough; a
    ``repartition`` would add a shuffle stage.
    """
    r = len(pdf)
    p = min(r, spark.sparkContext.defaultParallelism)
    bounds = np.arange(p + 1) * r // p
    part = np.repeat(np.arange(p), np.diff(bounds))
    turn = np.arange(r) - bounds[part]
    order = np.empty(r, dtype=np.int64)
    order[np.lexsort((part, turn))] = np.argsort(-weight, kind="stable")
    return spark.createDataFrame(pdf.iloc[order])


def spread_cells(cells: np.ndarray) -> int:
    """Cross cells of a BCCP batch outside its largest pair: an executor
    takes each pair whole, so only these can be spread over executors."""
    return int(cells.sum() - cells.max())


class SparkBccp:
    """Distributes BCCP / BCCP* batches for GFK and MemoGFK rounds.

    Construct once per MST run, then ``bccp_many`` is called every round
    with that round's missing pairs. The kd-tree is broadcast once, when
    the first batch fans out.
    """

    def __init__(self, spark: SparkSession, tree: KDTree):
        self.spark = spark
        self.tree = tree
        self._bc = None

    def unpersist(self) -> None:
        if self._bc is not None:
            self._bc.unpersist()

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
        if self._bc is None:
            self._bc = self.spark.sparkContext.broadcast(t)
        bc = self._bc
        use_star = bool(star)

        def compute(batches):
            tree = bc.value
            for b_pdf in batches:
                e = bccp_batch(
                    tree, b_pdf["a"].to_numpy(), b_pdf["b"].to_numpy(), use_star
                )
                yield pd.DataFrame(
                    {
                        "k": b_pdf["k"].to_numpy(),
                        "u": e[:, 0].astype(np.int64),
                        "v": e[:, 1].astype(np.int64),
                        "w": e[:, 2],
                    }
                )

        pdf = pd.DataFrame(
            {"k": np.arange(pairs.shape[0]), "a": pairs[:, 0], "b": pairs[:, 1]}
        )
        res = (
            _dealt(self.spark, pdf, cells)
            .mapInPandas(compute, schema="k long, u long, v long, w double")
            .toPandas()
        )
        out = np.empty((pairs.shape[0], 3))
        out[res["k"].to_numpy()] = res[["u", "v", "w"]].to_numpy(dtype=np.float64)
        return out


def core_distances_spark(spark: SparkSession, tree: KDTree, min_pts: int) -> np.ndarray:
    """Parallel core distances over the run's ``tree``: broadcast it and
    fan its k-NN blocks out in contiguous ranges, each solved by
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
    par = min(4 * spark.sparkContext.defaultParallelism, n_blocks)
    bounds = np.linspace(0, n_blocks, par + 1, dtype=np.int64)
    bc = spark.sparkContext.broadcast(tree)
    k = int(min_pts)

    def compute(batches):
        t = bc.value
        every = blocks(t)
        for b_pdf in batches:
            for a, z in zip(b_pdf["first"].to_numpy(), b_pdf["last"].to_numpy()):
                rows = np.arange(t.lo[every[a]], t.hi[every[z - 1]])
                cds = block_kth_distances(t, every[a:z], k)
                yield pd.DataFrame({"row": rows, "cd": cds})

    pdf = pd.DataFrame({"first": bounds[:-1], "last": bounds[1:]})
    try:
        res = (
            _dealt(spark, pdf, np.diff(bounds))
            .mapInPandas(compute, schema="row long, cd double")
            .toPandas()
        )
    finally:
        bc.unpersist()
    out = np.empty(n)
    out[tree.perm[res["row"].to_numpy()]] = res["cd"].to_numpy()
    return out


def run_payloads_spark(
    spark: SparkSession, subproblems: list[tuple[np.ndarray, np.ndarray, int]]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """Dendrogram light-edge subproblem fan-out: solve every
    (edges, refs, base) subproblem with ``solve_subproblem_kernel``,
    pickled into and out of executors when their edges reach the
    break-even; returns the results in the order of ``subproblems``.
    """
    edges = np.array([e.shape[0] for e, _, _ in subproblems], dtype=np.int64)
    if not subproblems or int(edges.sum()) < _MIN_PARALLEL_EDGES:
        return [solve_subproblem_kernel(*sub) for sub in subproblems]

    def compute(batches):
        for b_pdf in batches:
            blobs = [
                pickle.dumps(solve_subproblem_kernel(*pickle.loads(bytes(blob))))
                for blob in b_pdf["blob"]
            ]
            yield pd.DataFrame({"sub_id": b_pdf["sub_id"].to_numpy(), "blob": blobs})

    pdf = pd.DataFrame(
        {
            "sub_id": np.arange(len(subproblems)),
            "blob": [pickle.dumps(sub) for sub in subproblems],
        }
    )
    res = (
        _dealt(spark, pdf, edges)
        .mapInPandas(compute, schema="sub_id long, blob binary")
        .toPandas()
    )
    out = [None] * len(subproblems)
    for sid, blob in zip(res["sub_id"], res["blob"]):
        out[int(sid)] = pickle.loads(bytes(blob))
    return out
