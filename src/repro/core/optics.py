"""Approximate OPTICS (Appendix C) — parallel Gan–Tao.

Builds the base graph over a WSPD with separation constant
s = sqrt(8 / rho) (rho = 0.125 -> s = 8 in the paper's experiments) and
per well-separated pair (A, B) adds:

* |A| < minPts and |B| < minPts : every cross edge;
* |A| >= minPts > |B|           : A's representative to every b in B;
* |B| >= minPts > |A|           : B's representative to every a in A;
* both >= minPts                : representative-to-representative only.

Edge weight: w(u, v) = max{cd(u), cd(v), d(u, v) / (1 + rho)}. As in
the paper's implementation, the representative is simply a random point
of the node (their simplification of the approximate BCCP). The MST of
this O(n * minPts^2)-edge graph approximates the OPTICS/HDBSCAN* MST.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..graph import kruskal
from .gfk import GfkStats
from .hdbscan import core_tree
from .wspd import wspd

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def _pair_edges(
    tree, A: np.ndarray, B: np.ndarray, min_pts: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) original-id endpoint arrays of the edges of every
    well-separated pair (A[k], B[k]), per the four Gan–Tao cases.

    A side of at least ``min_pts`` points stands for one random point of
    it (its representative, all drawn in one ``rng.integers`` call), so
    every pair contributes the cross edges of its two sides; these are
    laid out flat with ``np.repeat``, as ``bccp._segmented`` lays out
    cross cells.
    """
    sizes = np.stack([tree.hi[A] - tree.lo[A], tree.hi[B] - tree.lo[B]])
    big = sizes >= min_pts
    first = tree.lo[np.stack([A, B])] + np.where(big, rng.integers(sizes), 0)
    na, nb = np.where(big, 1, sizes)
    cells = na * nb
    seg = np.repeat(np.arange(cells.size), cells)
    q, r = np.divmod(np.arange(int(cells.sum())) - (np.cumsum(cells) - cells)[seg], nb[seg])
    return tree.perm[first[0][seg] + q], tree.perm[first[1][seg] + r]


def optics_approx_mst(
    points: np.ndarray,
    min_pts: int = 10,
    rho: float = 0.125,
    spark: SparkSession | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, GfkStats]:
    """MST for approximate OPTICS. Returns (edges, core_distances,
    stats). Every edge weight is within a (1 + rho) factor of the
    corresponding mutual reachability distance, so the MST weight is a
    (1 + rho)-approximation of the exact HDBSCAN* MST weight.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    s = float(np.sqrt(8.0 / rho))
    tree, cd = core_tree(points, min_pts, spark)
    pts = np.asarray(points, dtype=np.float64)
    pairs = wspd(tree, s)
    stats = GfkStats(rounds=1, pairs_materialized=int(pairs.shape[0]))
    rng = np.random.default_rng(seed)
    us, vs = _pair_edges(tree, pairs[:, 0], pairs[:, 1], min_pts, rng)
    diff = pts[us] - pts[vs]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    ws = np.maximum(d / (1.0 + rho), np.maximum(cd[us], cd[vs]))
    stats.bccp_work_cells = int(us.size)
    edges = kruskal.mst(tree.n, us, vs, ws)
    return edges, cd, stats
