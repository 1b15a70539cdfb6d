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

import numpy as np
from pyspark.sql import SparkSession

from ..graph import kruskal
from .gfk import GfkStats
from .hdbscan import core_tree
from .wspd import wspd


def _pair_edges(
    tree, a: int, b: int, min_pts: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) original-id endpoint arrays for one well-separated pair,
    per the four Gan–Tao cases."""
    alo, ahi = int(tree.lo[a]), int(tree.hi[a])
    blo, bhi = int(tree.lo[b]), int(tree.hi[b])
    A = tree.perm[alo:ahi]
    B = tree.perm[blo:bhi]
    big_a = A.size >= min_pts
    big_b = B.size >= min_pts
    if big_a and big_b:
        return (
            np.array([A[rng.integers(A.size)]]),
            np.array([B[rng.integers(B.size)]]),
        )
    if big_a:
        rep = A[rng.integers(A.size)]
        return np.full(B.size, rep), B.copy()
    if big_b:
        rep = B[rng.integers(B.size)]
        return A.copy(), np.full(A.size, rep)
    us = np.repeat(A, B.size)
    vs = np.tile(B, A.size)
    return us, vs


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
    # One point has no pairs: start from empty arrays.
    all_u = [np.empty(0, dtype=np.int64)]
    all_v = [np.empty(0, dtype=np.int64)]
    for a, b in pairs:
        us, vs = _pair_edges(tree, int(a), int(b), min_pts, rng)
        all_u.append(us)
        all_v.append(vs)
    us = np.concatenate(all_u).astype(np.int64)
    vs = np.concatenate(all_v).astype(np.int64)
    diff = pts[us] - pts[vs]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    ws = np.maximum(d / (1.0 + rho), np.maximum(cd[us], cd[vs]))
    stats.bccp_work_cells = int(us.size)
    edges = kruskal.mst(tree.n, us, vs, ws)
    return edges, cd, stats
