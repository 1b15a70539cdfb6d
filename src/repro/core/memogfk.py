"""Parallel MemoGFK (Algorithm 3) — the memory-optimized GFK.

The full WSPD is never materialized. Each round:

* ``get_rho`` — first pruned kd-tree traversal: a WRITEMIN over the
  BCCP lower bounds of (implicit) well-separated pairs with cardinality
  > beta that are not yet connected, yielding rho_hi.
* ``get_pairs`` — second pruned traversal: retrieve only well-separated
  pairs whose BCCP lies in [rho_lo, rho_hi), pruning on the bounding-
  sphere bounds (Figure 3) and on component connectivity (``mono_labels``).
* the retrieved edges go to Kruskal; rho_lo = rho_hi; beta *= 2.
  A round whose rho_hi does not exceed rho_lo would retrieve nothing:
  it only doubles beta and calls ``get_rho`` again.

Both traversals are level-synchronous vectorized versions of the
FINDPAIR recursion (same visitation DAG, frontier kept in NumPy
arrays); get_rho's WRITEMIN is applied per level, which can only make
rho_hi-based pruning *weaker* than the sequential DFS, never wrong.

One function serves three paper variants:

* Euclidean BCCP, s=2 separation             -> EMST-MemoGFK
* BCCP*, s=2 separation                      -> HDBSCAN*-GanTao (exact)
* BCCP*, the paper's new well-separation     -> HDBSCAN*-MemoGFK

No BCCP is kept between rounds, as in the paper: a round computes the
BCCP of every pair it retrieves, so a pair retrieved again in a later
round is computed again (each BCCP is a deterministic function of the
tree and the pair, so the edges do not depend on it). A ``spark``
session fans each round's BCCP batch out to executors
(``repro.engine.distribute.SparkBccp``) — the "48 cores" configuration.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..geometry.kdtree import KDTree
from ..graph.kruskal import kruskal_batch
from .gfk import GfkStats, compute_bccps, mono_labels
from .wspd import (
    root_seeds,
    split_frontier,
    v_center_dist,
    v_gap_max,
    v_lower,
    v_well_separated,
)

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

_MAX_ROUNDS = 128  # beta doubles per get_rho call: a correct run needs ~log2(n)


def _v_bounds(
    tree: KDTree, A: np.ndarray, B: np.ndarray, star: bool, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (lower, upper) bounds on BCCP/BCCP* per frontier pair
    with center distances ``c``."""
    ub = v_gap_max(tree, A, B, c)
    if star:
        ub = np.maximum(ub, np.maximum(tree.cd_max[A], tree.cd_max[B]))
    return v_lower(tree, A, B, star, c), ub


def _seeds(tree: KDTree, mono: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FINDPAIR seeds, skipping internal nodes that are already fully
    inside one component (the paper's connectivity prune)."""
    A, B = root_seeds(tree)
    internal = np.flatnonzero(tree.left >= 0)
    keep = mono[internal] == -1
    return A[keep], B[keep]


def get_rho(
    tree: KDTree,
    beta: int,
    mono: np.ndarray,
    kind: str | float,
    star: bool,
) -> float:
    """GETRHO (Algorithm 3, Line 4): lower bound on the lightest edge
    any not-yet-connected pair with cardinality > beta can produce."""
    sz = (tree.hi - tree.lo).astype(np.int64)
    rho_hi = np.inf
    A, B = _seeds(tree, mono)
    while A.size:
        keep = sz[A] + sz[B] > beta  # S_l pairs (and descendants) pruned
        keep &= ~((mono[A] != -1) & (mono[A] == mono[B]))
        A, B = A[keep], B[keep]
        if not A.size:
            break
        c = v_center_dist(tree, A, B)
        lb = v_lower(tree, A, B, star, c)
        live = lb < rho_hi
        A, B, lb, c = A[live], B[live], lb[live], c[live]
        if not A.size:
            break
        ws = v_well_separated(tree, A, B, kind, c)
        if np.any(ws):
            rho_hi = min(rho_hi, float(lb[ws].min()))  # WRITEMIN
        A, B = split_frontier(tree, A[~ws], B[~ws])
    return float(rho_hi)


def get_pairs(
    tree: KDTree,
    rho_lo: float,
    rho_hi: float,
    mono: np.ndarray,
    kind: str | float,
    star: bool,
    stats: GfkStats,
    spark: SparkSession | None = None,
) -> np.ndarray:
    """GETPAIRS (Algorithm 3, Line 5): edges of well-separated pairs
    with BCCP in [rho_lo, rho_hi), via a bounds-pruned traversal.

    Prunes (Figure 3b): d_max(A,B) < rho_lo (descendants' BCCPs below
    range), lb >= rho_hi (descendants' BCCPs above range), or A, B
    already in one component. Well-separated survivors get their BCCP
    computed (one ``bccp_batch`` call, or one Spark fan-out); only
    in-range ones are materialized as edges.

    A pair is in range when its weight clamped into its bounds is, and
    a pair's bounds are kept inside those of every pair above it in the
    traversal. So however the bounds and the weight round, no pair
    above it is pruned in the round its clamped weight falls in, and
    the edge is offered exactly once. The edge keeps its true weight.
    """
    candidates: list[np.ndarray] = []
    bounds: list[np.ndarray] = []
    A, B = _seeds(tree, mono)
    lo, hi = np.zeros(A.size), np.full(A.size, np.inf)
    while A.size:
        keep = ~((mono[A] != -1) & (mono[A] == mono[B]))
        A, B, lo, hi = A[keep], B[keep], lo[keep], hi[keep]
        if not A.size:
            break
        c = v_center_dist(tree, A, B)
        lb, ub = _v_bounds(tree, A, B, star, c)
        lo = np.minimum(np.maximum(lo, lb), hi)
        hi = np.maximum(np.minimum(hi, ub), lo)
        live = (hi >= rho_lo) & (lo < rho_hi)
        A, B, c, lo, hi = A[live], B[live], c[live], lo[live], hi[live]
        if not A.size:
            break
        ws = v_well_separated(tree, A, B, kind, c)
        candidates.append(np.stack([A[ws], B[ws]], axis=1))
        bounds.append(np.stack([lo[ws], hi[ws]], axis=1))
        split = ~ws
        A, B = split_frontier(tree, A[split], B[split])
        lo, hi = np.tile(lo[split], 2), np.tile(hi[split], 2)
    if not candidates:
        return np.empty((0, 3))
    cand = np.concatenate(candidates, axis=0)
    lo, hi = np.concatenate(bounds, axis=0).T
    stats.pairs_materialized = max(stats.pairs_materialized, cand.shape[0])

    edges = compute_bccps(tree, cand, star, stats, spark)
    w = np.clip(edges[:, 2], lo, hi)
    return edges[(rho_lo <= w) & (w < rho_hi)]


def memogfk_mst(
    tree: KDTree,
    star: bool = False,
    separation: str | float = "s2",
    spark: SparkSession | None = None,
) -> tuple[np.ndarray, GfkStats]:
    """Run Algorithm 3. Returns ((n-1, 3) [u, v, w] MST edges, stats).

    ``separation="hdbscan"`` + ``star=True`` is HDBSCAN*-MemoGFK;
    ``separation="s2"`` + ``star=True`` is the exact GanTao baseline;
    ``separation="s2"`` + ``star=False`` is EMST-MemoGFK.
    """
    comp = np.arange(tree.n)
    out_edges = [np.empty((0, 3))]
    stats = GfkStats()
    beta = 2
    rho_lo = 0.0
    rho_calls = 0
    while comp.any():  # once spanned, every label is 0 (the smallest vertex)
        mono = mono_labels(tree, comp)
        # A round with rho_hi <= rho_lo retrieves no pair and adds no
        # edge, so it only doubles beta: comp and mono stay as they are.
        while True:
            rho_calls += 1
            if rho_calls > _MAX_ROUNDS:
                raise RuntimeError("MemoGFK failed to converge (bug)")
            rho_hi = get_rho(tree, beta, mono, separation, star)
            if rho_hi > rho_lo:
                break
            beta *= 2
        stats.rounds += 1
        batch = get_pairs(tree, rho_lo, rho_hi, mono, separation, star, stats, spark)
        kruskal_batch(
            batch[:, 0].astype(np.int64),
            batch[:, 1].astype(np.int64),
            batch[:, 2],
            comp,
            out_edges,
        )
        if (
            not np.isfinite(rho_hi)
            and batch.size == 0
            and comp.any()
        ):
            raise RuntimeError("MemoGFK exhausted pairs before spanning (bug)")
        rho_lo = rho_hi
        beta *= 2
    return np.concatenate(out_edges), stats
