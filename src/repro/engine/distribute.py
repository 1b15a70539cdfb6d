"""Spark fan-out of the paper's shared-memory parallel loops.

The paper runs on a 48-core Cilk machine; every parallel-for over
independent heavy kernels (BCCP batches, k-NN queries, light-edge
dendrogram subproblems) maps here onto one Spark DataFrame job:

* driver broadcasts the reordered point array / core distances / kd-tree
  arrays once per run;
* the work list (node-id pairs, query-id chunks, pickled subproblems)
  becomes a DataFrame, explicitly spread over ``defaultParallelism``
  partitions by a balanced partition key;
* ``mapInPandas`` runs the identical NumPy kernels used by the
  sequential path inside executors;
* results return to the driver (Kruskal's union-find, like the paper's,
  is a serial fraction that Figure 8 shows is negligible).

Tiny batches are executed on the driver instead — shipping four
integers to a cluster to compare two points is pure overhead; the paper
makes the same granularity argument for its parallel loops.
"""
from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.bccp import bccp_batch
from ..core.dendrogram import solve_subproblem_kernel
from ..geometry.kdtree import KDTree

# Below this many distance-matrix cells a fan-out costs more than it
# saves; the batch runs on the driver.
_MIN_PARALLEL_CELLS = 100_000


class SparkBccp:
    """Distributes BCCP / BCCP* batches for GFK and MemoGFK rounds.

    Construct once per MST run (one broadcast of the kd-tree), then
    ``bccp_many`` is called every round with that round's missing pairs.
    """

    def __init__(self, spark: SparkSession, tree: KDTree, n_parts: int | None = None):
        self.spark = spark
        self.tree = tree
        self.n_parts = n_parts or spark.sparkContext.defaultParallelism
        self._bc = spark.sparkContext.broadcast(tree)

    def unpersist(self) -> None:
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
        if int(cells.sum()) < _MIN_PARALLEL_CELLS:
            return bccp_batch(t, pairs[:, 0], pairs[:, 1], star)

        # Balance: largest pairs first, round-robin over partitions.
        order = np.argsort(-cells, kind="stable")
        pdf = pd.DataFrame(
            {
                "k": order,
                "a": pairs[order, 0],
                "b": pairs[order, 1],
                "part": np.arange(order.size, dtype=np.int64) % self.n_parts,
            }
        )
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

        df = self.spark.createDataFrame(pdf)
        res = (
            df.repartition(self.n_parts, "part")
            .mapInPandas(compute, schema="k long, u long, v long, w double")
            .toPandas()
        )
        out = np.empty((pairs.shape[0], 3))
        out[res["k"].to_numpy()] = res[["u", "v", "w"]].to_numpy(dtype=np.float64)
        return out


def core_distances_spark(
    spark: SparkSession,
    points: np.ndarray,
    min_pts: int,
    leaf_size: int = 16,
    n_chunks: int | None = None,
) -> np.ndarray:
    """Parallel core distances: build the k-NN tree on the driver,
    broadcast it, and fan the queries out in contiguous chunks.

    Mirrors the paper's parallel k-NN step (Section 3.2.1); returns
    cd[i] for every original point id i.
    """
    from ..geometry import kdtree as kdt
    from ..geometry.knn import kth_distances

    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    n = pts.shape[0]
    if not 1 <= min_pts <= n:
        raise ValueError("minPts must be between 1 and the number of points")
    tree = kdt.build(pts.copy(), leaf_size=leaf_size)
    par = n_chunks or 4 * spark.sparkContext.defaultParallelism
    if n < 4096:
        return kth_distances(tree, pts, min_pts)
    bc = spark.sparkContext.broadcast({"tree": tree, "queries": pts})
    bounds = np.linspace(0, n, par + 1, dtype=np.int64)
    pdf = pd.DataFrame(
        {"lo": bounds[:-1], "hi": bounds[1:], "part": np.arange(par) % par}
    )
    k = int(min_pts)

    def compute(batches):
        data = bc.value
        t, q = data["tree"], data["queries"]
        for b_pdf in batches:
            for lo, hi in zip(b_pdf["lo"].to_numpy(), b_pdf["hi"].to_numpy()):
                cds = kth_distances(t, q[lo:hi], k)
                yield pd.DataFrame(
                    {"id": np.arange(lo, hi, dtype=np.int64), "cd": cds}
                )

    res = (
        spark.createDataFrame(pdf)
        .repartition(min(par, 64), "part")
        .mapInPandas(compute, schema="id long, cd double")
        .toPandas()
    )
    bc.unpersist()
    out = np.empty(n)
    out[res["id"].to_numpy()] = res["cd"].to_numpy()
    return out


def run_payloads_spark(
    spark: SparkSession, payloads: list[bytes]
) -> list[tuple[int, bytes]]:
    """Dendrogram light-edge subproblem fan-out: each pickled payload
    is solved in an executor by ``solve_subproblem_kernel`` and pickled
    back; returns (payload index, result) pairs in arrival order.
    """
    if not payloads:
        return []
    n_parts = min(len(payloads), spark.sparkContext.defaultParallelism)
    sizes = np.array([len(p) for p in payloads], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    pdf = pd.DataFrame(
        {
            "sub_id": [int(i) for i in order],
            "blob": [payloads[i] for i in order],
            "part": np.arange(order.size, dtype=np.int64) % n_parts,
        }
    )

    def compute(batches):
        for b_pdf in batches:
            out = {"sub_id": [], "blob": []}
            for sid, blob in zip(b_pdf["sub_id"], b_pdf["blob"]):
                result = solve_subproblem_kernel(*pickle.loads(bytes(blob)))
                out["sub_id"].append(int(sid))
                out["blob"].append(pickle.dumps(result))
            yield pd.DataFrame(out)

    res = (
        spark.createDataFrame(pdf)
        .repartition(n_parts, "part")
        .mapInPandas(compute, schema="sub_id long, blob binary")
        .toPandas()
    )
    return [(int(r.sub_id), bytes(r.blob)) for r in res.itertuples()]
