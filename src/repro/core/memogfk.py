"""Parallel MemoGFK (Algorithm 3) — the memory-optimized GFK.

The full WSPD is never materialized. Each round makes one pruned
kd-tree traversal:

* ``get_rho`` — GETRHO inside the GETPAIRS descent: a running WRITEMIN
  over the BCCP lower bounds of the unconnected well-separated pairs
  with cardinality > beta yields rho_hi and prunes the descent, which
  keeps the smaller pairs whose BCCP may lie in [rho_lo, rho_hi),
  pruning on the bounding-sphere bounds (Figure 3) and on component
  connectivity (``mono_labels``).
* ``get_pairs`` — the fill: those pairs' BCCPs, cut to [rho_lo, rho_hi).
* the retrieved edges go to Kruskal; rho_lo = rho_hi; beta *= 2.
  A round whose rho_hi does not exceed rho_lo would retrieve nothing:
  it only doubles beta and calls ``get_rho`` again.

The traversal is a level-synchronous vectorized version of the FINDPAIR
recursion (same visitation DAG, frontier kept in NumPy arrays). Its
WRITEMIN falls level by level, which can only make its pruning weaker
than the sequential DFS's, never wrong: each round offers every edge in
[rho_lo, rho_hi), so MemoGFK is exact for any rising rho schedule.

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
    rho_lo: float,
    mono: np.ndarray,
    kind: str | float,
    star: bool,
    stats: GfkStats,
) -> tuple[float, np.ndarray, np.ndarray]:
    """GETRHO inside the GETPAIRS descent (Algorithm 3, Lines 4-5).
    Returns (rho_hi, pairs (k, 2), bounds (k, 2)): the unconnected
    well-separated pairs with cardinality <= beta whose BCCP may lie in
    [rho_lo, rho_hi), with their (lo, hi) bounds on it.

    ``est``, a running WRITEMIN of the lower bounds of the unconnected
    well-separated pairs with cardinality > beta, ends as rho_hi. Prunes
    (Figure 3b): A, B in one component, hi < rho_lo, or lo >= est; when
    est falls, candidates with lo >= est are dropped too. Bounds nest
    down the traversal, so a pruned pair's descendants share its reason
    and no pair in range is lost. ``est`` is taken before a level's range
    prune; once est <= rho_lo the round is empty and returns.
    """
    sz = (tree.hi - tree.lo).astype(np.int64)
    est = np.inf
    pairs: list[np.ndarray] = [np.empty((0, 2), dtype=np.int64)]
    bounds: list[np.ndarray] = [np.empty((0, 2))]
    A, B = _seeds(tree, mono)
    lo, hi = np.zeros(A.size), np.full(A.size, np.inf)
    while A.size:
        stats.visits += A.size
        keep = ~((mono[A] != -1) & (mono[A] == mono[B]))
        A, B, lo, hi = A[keep], B[keep], lo[keep], hi[keep]
        c = v_center_dist(tree, A, B)
        lb, ub = _v_bounds(tree, A, B, star, c)
        lo = np.minimum(np.maximum(lo, lb), hi)
        hi = np.maximum(np.minimum(hi, ub), lo)
        live = lo < est
        A, B, c, lo, hi = A[live], B[live], c[live], lo[live], hi[live]
        ws = v_well_separated(tree, A, B, kind, c)
        big = ws & (sz[A] + sz[B] > beta)
        if big.any() and (m := float(lo[big].min())) < est:
            est = m  # WRITEMIN
            if est <= rho_lo:
                return est, pairs[0], bounds[0]
            stale = [b[:, 0] < est for b in bounds]
            pairs = [p[s] for p, s in zip(pairs, stale)]
            bounds = [b[s] for b, s in zip(bounds, stale)]
        live = (hi >= rho_lo) & (lo < est)
        cand = ws & ~big & live
        pairs.append(np.stack([A[cand], B[cand]], axis=1))
        bounds.append(np.stack([lo[cand], hi[cand]], axis=1))
        split = ~ws & live
        A, B = split_frontier(tree, A[split], B[split])
        lo, hi = np.tile(lo[split], 2), np.tile(hi[split], 2)
    return est, np.concatenate(pairs), np.concatenate(bounds)


def get_pairs(
    tree: KDTree,
    rho_lo: float,
    rho_hi: float,
    pairs: np.ndarray,
    bounds: np.ndarray,
    star: bool,
    stats: GfkStats,
    spark: SparkSession | None = None,
) -> np.ndarray:
    """GETPAIRS's fill (Algorithm 3, Line 5): the BCCP edges of
    ``get_rho``'s candidate ``pairs`` in [rho_lo, rho_hi), from one
    ``compute_bccps`` call (``bccp_batch``, or one Spark fan-out).

    A pair is in range when its weight clamped into its ``bounds`` is:
    the bounds nest down the traversal, so however they and the weight
    round, no pair above it was pruned in the round its clamped weight
    falls in, and the edge is offered once, with its true weight.
    """
    stats.pairs_materialized = max(stats.pairs_materialized, pairs.shape[0])
    edges = compute_bccps(tree, pairs, star, stats, spark)
    w = np.clip(edges[:, 2], bounds[:, 0], bounds[:, 1])
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
            rho_hi, pairs, bounds = get_rho(
                tree, beta, rho_lo, mono, separation, star, stats
            )
            if rho_hi > rho_lo:
                break
            beta *= 2
        stats.rounds += 1
        batch = get_pairs(tree, rho_lo, rho_hi, pairs, bounds, star, stats, spark)
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
