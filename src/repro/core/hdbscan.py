"""HDBSCAN* MST construction (Section 3.2) — the two methods of Table 5.

Pipeline (both methods):

1. one kd-tree, and on it the core distances cd(p) = distance to the
   minPts-th nearest neighbor including p (fanned out over Spark block
   ranges when a session is given and the input reaches the break-even);
2. the tree augmented with per-node cd_min/cd_max;
3. MST of the mutual reachability graph via MemoGFK with BCCP*:

   * ``method="gantao"``  — standard s=2 well-separation (the paper's
     parallelized exact Gan–Tao baseline, Section 3.2.1);
   * ``method="memogfk"`` — the paper's new well-separation
     (geometrically-separated OR mutually-unreachable, Section 3.2.2),
     which terminates the WSPD recursion earlier and materializes
     2.5–10.29x fewer pairs in the paper's runs.

``hdbscan_mst`` returns the MST plus core distances; dendrogram /
reachability-plot generation lives in ``repro.core.dendrogram``.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..geometry import kdtree as kdt
from ..geometry import knn
from ..graph.kruskal import spanning_forest
from .gfk import GfkStats
from .memogfk import memogfk_mst
from .wspd import wspd

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def core_distances(
    tree: kdt.KDTree, min_pts: int, spark: SparkSession | None = None
) -> np.ndarray:
    """cd(p) for every point of ``tree`` (by original id); parallel k-NN
    when ``spark`` is given (above the fan-out's break-even)."""
    if spark is not None:
        from ..engine.distribute import core_distances_spark

        return core_distances_spark(spark, tree, min_pts)
    return knn.core_distances(tree, min_pts)


def core_tree(
    points: np.ndarray, min_pts: int, spark: SparkSession | None = None
) -> tuple[kdt.KDTree, np.ndarray]:
    """The run's one kd-tree over ``points``, with the core distances
    computed on it attached as node summaries; returns (tree, cd)."""
    tree = kdt.build(points)
    cd = core_distances(tree, min_pts, spark)
    kdt.attach_core_distances(tree, cd)
    return tree, cd


def hdbscan_mst(
    points: np.ndarray,
    min_pts: int = 10,
    method: str = "memogfk",
    spark: SparkSession | None = None,
) -> tuple[np.ndarray, np.ndarray, GfkStats]:
    """MST of the mutual reachability graph.

    Returns (edges (n-1, 3) [u, v, d_m], core_distances, stats).
    """
    if method not in ("memogfk", "gantao"):
        raise ValueError(f"unknown method {method!r}")
    tree, cd = core_tree(points, min_pts, spark)
    separation = "hdbscan" if method == "memogfk" else "s2"
    edges, stats = memogfk_mst(tree, star=True, separation=separation, spark=spark)
    return edges, cd, stats


def wspd_pair_counts(points: np.ndarray, min_pts: int = 10) -> dict[str, int]:
    """Materialized-WSPD sizes under both separation notions — the
    space-saving claim of Section 3.2.2 (2.5–10.29x fewer pairs)."""
    tree, _ = core_tree(points, min_pts)
    return {
        "s2": int(wspd(tree, "s2").shape[0]),
        "hdbscan": int(wspd(tree, "hdbscan").shape[0]),
    }


def mutual_reachability_bruteforce(
    points: np.ndarray, min_pts: int
) -> np.ndarray:
    """Dense mutual-reachability distance matrix (test oracle)."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    d = np.sqrt(
        np.maximum(
            np.einsum("id,id->i", pts, pts)[:, None]
            + np.einsum("jd,jd->j", pts, pts)[None, :]
            - 2.0 * pts @ pts.T,
            0.0,
        )
    )
    cd = np.sort(d, axis=1)[:, min_pts - 1]
    dm = np.maximum(d, np.maximum(cd[:, None], cd[None, :]))
    np.fill_diagonal(dm, 0.0)
    return dm


def dbscan_star_from_mst(
    mst_edges: np.ndarray, cd: np.ndarray, eps: float
) -> np.ndarray:
    """Extract the DBSCAN* clustering at a given eps from the HDBSCAN*
    MST: keep core points (cd <= eps) connected by MST edges of weight
    <= eps; everything else is noise (label -1).

    This is the 'horizontal cut of the dendrogram' of Section 2.1,
    realized directly on the MST (the two are equivalent). Clusters are
    numbered 0, 1, ... in the order of their smallest member, whatever
    the row order.
    """
    n = cd.shape[0]
    core = cd <= eps
    uv = mst_edges[:, :2].astype(np.int64)
    cut = uv[(mst_edges[:, 2] <= eps) & core[uv[:, 0]] & core[uv[:, 1]]]
    comp = np.arange(n)
    spanning_forest(comp, cut[:, 0], cut[:, 1])
    labels = np.full(n, -1, dtype=np.int64)
    labels[core] = np.unique(comp[core], return_inverse=True)[1]
    return labels
