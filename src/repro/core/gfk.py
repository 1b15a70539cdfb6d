"""Parallel GeoFilterKruskal (Algorithm 2) over a materialized WSPD.

Round structure (exactly the paper's):

1. Split pairs by cardinality |A| + |B| <= beta into S_l / S_u.
2. rho_hi = min d(A, B) over S_u — a lower bound on every edge S_u can
   ever produce.
3. S_l1 = pairs with BCCP <= rho_hi. BCCPs are computed only for the
   S_l pairs with d(A, B) <= rho_hi: the others cannot be in S_l1 yet,
   and stay for later rounds, where most are filtered out by step 5
   before their BCCP is ever computed. A computed BCCP stays with its
   pair for the later rounds.
4. Feed S_l1's edges to Kruskal (one component array for the whole run).
5. Filter out remaining pairs whose two sides are already fully inside
   one component.
6. beta *= 2 (doubling => O(log n) rounds; the paper's depth argument).

A ``spark`` session switches the BCCP batch of step 3 from one
driver-side ``bccp_batch`` call to a Spark ``mapInPandas`` fan-out
(``repro.engine.distribute.SparkBccp``) — the "48 cores" configuration
of Tables 2/4/5.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..geometry.kdtree import KDTree
from ..graph.kruskal import kruskal_batch
from . import bccp as bccp_mod
from .wspd import pair_point_count, v_center_dist, v_lower

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


@dataclass
class GfkStats:
    """Instrumentation for the memory/time claims in Section 5.

    ``bccp_computed`` counts every BCCP computed: MemoGFK keeps none
    between rounds, so a pair it retrieves again in a later round is
    computed, and counted, again.
    """

    rounds: int = 0
    bccp_computed: int = 0
    pairs_materialized: int = 0       # peak simultaneously-live pairs
    bccp_work_cells: int = 0          # brute-force cells of the pairs handed to BCCP
    visits: int = 0                   # frontier pairs MemoGFK's traversal handles


def mono_labels(tree: KDTree, comp: np.ndarray) -> np.ndarray:
    """Per-node connectivity summary: mono[v] = component label if every
    point under node v is in one component of ``comp``, else -1.

    This is how both the GFK filter (f_diff, Line 9 of Algorithm 2) and
    the MemoGFK traversal prunes test "A and B already connected"
    without touching individual points: a pair is discardable iff
    mono[a] == mono[b] != -1.

    Vectorized via the contiguous-range property: node v's range
    [lo, hi) is label-uniform iff it contains no label change point of
    the reordered label array.
    """
    lab = comp[tree.perm]  # labels in reordered point order
    # Positions p where lab[p] != lab[p-1], sorted ascending.
    changes = np.flatnonzero(lab[1:] != lab[:-1]) + 1
    lo, hi = tree.lo, tree.hi
    # Range uniform iff no change point p with lo < p < hi.
    n_changes = np.searchsorted(changes, hi, side="left") - np.searchsorted(
        changes, lo + 1, side="left"
    )
    return np.where(n_changes == 0, lab[lo], -1)


def compute_bccps(
    tree: KDTree,
    pairs: np.ndarray,
    star: bool,
    stats: GfkStats,
    spark: SparkSession | None = None,
) -> np.ndarray:
    """The (k, 3) [u, v, w] BCCP (or BCCP*) edges of the node pairs
    ``pairs`` (k, 2), counted into ``stats``: one ``bccp_batch`` call, or
    with a session one Spark fan-out. The BCCP fill of every
    GFK/MemoGFK round and of EMST-Naive."""
    sz = tree.hi - tree.lo
    stats.bccp_computed += int(pairs.shape[0])
    stats.bccp_work_cells += int((sz[pairs[:, 0]] * sz[pairs[:, 1]]).sum())
    if spark is not None:
        from ..engine.distribute import SparkBccp

        return SparkBccp(spark, tree).bccp_many(pairs, star=star)
    return bccp_mod.bccp_batch(tree, pairs[:, 0], pairs[:, 1], star)


def gfk_mst(
    tree: KDTree,
    pairs: np.ndarray,
    star: bool = False,
    spark: SparkSession | None = None,
) -> tuple[np.ndarray, GfkStats]:
    """Run Algorithm 2 on a materialized WSPD ``pairs``.

    ``star=True`` computes BCCP* (mutual reachability) — requires
    ``attach_core_distances`` on the tree. Returns ((n-1, 3) MST edges,
    stats).
    """
    comp = np.arange(tree.n)
    out_edges = [np.empty((0, 3))]
    stats = GfkStats(pairs_materialized=int(pairs.shape[0]))

    # The live pairs as parallel arrays, filtered together once per
    # round. (u, v, w) is a pair's BCCP edge; w is NaN until computed.
    A, B = np.ascontiguousarray(pairs.T)
    card = pair_point_count(tree, pairs)
    lbs = v_lower(tree, A, B, star, v_center_dist(tree, A, B))
    u, v = np.zeros((2, A.size), np.int64)
    w = np.full(A.size, np.nan)
    beta = 2
    # Once the tree spans, step 5 filters out every pair.
    while A.size > 0:
        stats.rounds += 1
        in_l = card <= beta
        rho_hi = float(lbs[~in_l].min()) if not in_l.all() else np.inf
        # Line 6 gate: BCCP >= lbs, so a pair with lbs > rho_hi cannot
        # pass the take test below; it stays live, uncomputed (a NaN
        # weight fails that test).
        todo = np.flatnonzero(in_l & np.isnan(w) & (lbs <= rho_hi))
        if todo.size:
            e = compute_bccps(
                tree, np.column_stack([A[todo], B[todo]]), star, stats, spark
            )
            u[todo], v[todo], w[todo] = e[:, 0], e[:, 1], e[:, 2]
        take = in_l & (w <= rho_hi)
        kruskal_batch(u[take], v[take], w[take], comp, out_edges)
        left = ~take
        if left.any():
            mono = mono_labels(tree, comp)
            ma, mb = mono[A], mono[B]
            left &= (ma == -1) | (ma != mb)
        # The remaining pairs: S_l's untaken ones, then S_u's (the order
        # that Kruskal's weight ties in later rounds are broken by).
        rest = np.concatenate([np.flatnonzero(in_l & left), np.flatnonzero(~in_l & left)])
        A, B, card, lbs, u, v, w = (x[rest] for x in (A, B, card, lbs, u, v, w))
        beta *= 2
    return np.concatenate(out_edges), stats
