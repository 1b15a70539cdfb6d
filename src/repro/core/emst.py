"""EMST entry points — the four implementations of Table 4.

* ``emst_naive``   — materialize the s=2 WSPD, compute every pair's
  BCCP, run Kruskal once over all edges (Section 3.1.2's strawman).
* ``emst_gfk``     — Algorithm 2 over the materialized WSPD.
* ``emst_memogfk`` — Algorithm 3 (no WSPD materialization).
* ``emst_delaunay``— 2D only (Appendix A.1): MST over Delaunay edges.

Naive, GFK and MemoGFK take an optional SparkSession; when given, the
heavy inner loops (all-pairs BCCP for naive, per-round BCCP batches for
GFK/MemoGFK) run as Spark jobs — the "48 cores" configuration. The
returned edges are (n-1, 3) [u, v, w] rows; ties aside, every
implementation returns the same MST weight multiset (tests enforce this
against a Prim oracle).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..geometry import kdtree as kdt
from ..geometry.delaunay import delaunay_edges
from ..graph import kruskal
from .gfk import GfkStats, compute_bccps, gfk_mst
from .memogfk import memogfk_mst
from .wspd import wspd

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def emst_naive(
    points: np.ndarray,
    spark: SparkSession | None = None,
    max_pairs: int | None = None,
) -> tuple[np.ndarray, GfkStats]:
    """EMST-Naive: BCCP edge for every WSPD pair, then one Kruskal."""
    tree = kdt.build(points)
    pairs = wspd(tree, "s2", max_pairs=max_pairs)
    stats = GfkStats(rounds=1, pairs_materialized=int(pairs.shape[0]))
    edges = compute_bccps(tree, pairs, False, stats, spark)
    mst = kruskal.mst(
        tree.n,
        edges[:, 0].astype(np.int64),
        edges[:, 1].astype(np.int64),
        edges[:, 2],
    )
    return mst, stats


def emst_gfk(
    points: np.ndarray,
    spark: SparkSession | None = None,
    max_pairs: int | None = None,
) -> tuple[np.ndarray, GfkStats]:
    """EMST-GFK: Algorithm 2 on the materialized WSPD."""
    tree = kdt.build(points)
    pairs = wspd(tree, "s2", max_pairs=max_pairs)
    return gfk_mst(tree, pairs, star=False, spark=spark)


def emst_memogfk(
    points: np.ndarray, spark: SparkSession | None = None
) -> tuple[np.ndarray, GfkStats]:
    """EMST-MemoGFK: Algorithm 3 (the paper's fastest method)."""
    tree = kdt.build(points)
    return memogfk_mst(tree, star=False, separation="s2", spark=spark)


def emst_delaunay(points: np.ndarray) -> tuple[np.ndarray, GfkStats]:
    """EMST-Delaunay (2D only): Kruskal over Delaunay edges.

    The triangulation is the driver-side exact incremental substrate
    (kd-tree order, walk, Lawson flips on exact predicates; DESIGN.md
    documents this substitution for PBBS's parallel Delaunay). Every
    EMST edge is a Gabriel edge, hence in the triangulation, so the
    result is exact for any 2D input the point check accepts, cocircular
    and collinear points included. It has no Spark path: weighting O(n)
    edges is too little work to fan out.
    """
    pts = kdt.check_points(points)
    if pts.shape[1] != 2:
        raise ValueError("EMST-Delaunay is 2D only")
    de = delaunay_edges(pts)
    stats = GfkStats(rounds=1, pairs_materialized=int(de.shape[0]))
    diff = pts[de[:, 0]] - pts[de[:, 1]]
    ws = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    # The triangulation holds every EMST edge, so this spans.
    return kruskal.mst(pts.shape[0], de[:, 0], de[:, 1], ws), stats
