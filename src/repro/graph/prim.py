"""Prim's algorithm — brute-force MST oracles and the reachability plot.

Two roles:

* ``mst_bruteforce`` / ``mst_bruteforce_mutual``: O(n^2) Prim over the
  complete (mutual-reachability) graph. The MST edge-weight multiset of
  a graph is unique even when the MST itself is not, so tests compare
  sorted weight arrays against the paper algorithms' outputs.
* ``reachability_plot``: Prim restricted to a tree's edges starting at
  ``s`` — the paper's definition of the OPTICS/HDBSCAN* reachability
  plot (Section 2.1), used as the oracle for the ordered dendrogram's
  in-order traversal (Theorem 4.2).
"""
from __future__ import annotations

import heapq

import numpy as np


def mst_bruteforce(points: np.ndarray) -> np.ndarray:
    """Exact EMST by dense Prim; returns (n-1, 3) [u, v, w] rows. With
    zero core distances max(d, 0) = d, so this is the mutual one's."""
    return mst_bruteforce_mutual(points, np.zeros(points.shape[0]))


def mst_bruteforce_mutual(points: np.ndarray, core_dist: np.ndarray) -> np.ndarray:
    """Exact MST of the mutual reachability graph
    (w(p,q) = max{cd(p), cd(q), d(p,q)}) by dense Prim."""
    n = points.shape[0]
    cd = np.asarray(core_dist, dtype=np.float64)
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best_from = np.full(n, -1, dtype=np.int64)
    best[0] = 0.0
    edges = []
    for _ in range(n):
        u = int(np.argmin(np.where(in_tree, np.inf, best)))
        in_tree[u] = True
        if best_from[u] >= 0:
            edges.append((int(best_from[u]), u, float(best[u])))
        d = np.linalg.norm(points - points[u], axis=1)
        dm = np.maximum(d, np.maximum(cd, cd[u]))
        upd = (~in_tree) & (dm < best)
        best[upd] = dm[upd]
        best_from[upd] = u
    return np.asarray(edges, dtype=np.float64).reshape(-1, 3)


def is_valid_prim_order(
    n: int, edges: np.ndarray, order: np.ndarray, bars: np.ndarray
) -> bool:
    """Check that (order, bars) is *some* valid execution of Prim's
    algorithm on the tree from order[0].

    With tied edge weights Prim's visit order is not unique (mutual
    reachability graphs tie often, since many edges share a core
    distance), so ordered-dendrogram tests verify validity rather than
    equality with one arbitrary tie-break: at every step the visited
    vertex must be a frontier vertex attaining the minimum frontier
    edge weight, and its bar must equal that minimum.
    """
    best = np.full(n, np.inf)
    adj: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[int(u)].append((float(w), int(v)))
        adj[int(v)].append((float(w), int(u)))
    visited = np.zeros(n, dtype=bool)
    if bars[0] != np.inf:
        return False
    for i, u in enumerate(order):
        u = int(u)
        if visited[u]:
            return False
        if i > 0:
            frontier_min = best[~visited].min()
            if not (
                np.isclose(best[u], frontier_min)
                and np.isclose(bars[i], best[u])
            ):
                return False
        visited[u] = True
        for w, v in adj[u]:
            if not visited[v] and w < best[v]:
                best[v] = w
    return bool(visited.all())


def reachability_plot(
    n: int, edges: np.ndarray, s: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Run Prim over the given tree edges starting at ``s``.

    Returns (order, bars): ``order[i]`` is the i-th visited vertex and
    ``bars[i]`` its reachability value (inf for the start vertex). Ties
    are broken by (weight, vertex id) so the output is deterministic —
    the ordered-dendrogram code uses the same tie-break.
    """
    adj: list[list[tuple[float, int]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[int(u)].append((float(w), int(v)))
        adj[int(v)].append((float(w), int(u)))
    visited = np.zeros(n, dtype=bool)
    order = []
    bars = []
    pq: list[tuple[float, int]] = [(-np.inf, s)]
    while pq:
        w, u = heapq.heappop(pq)
        if visited[u]:
            continue
        visited[u] = True
        order.append(u)
        bars.append(np.inf if w == -np.inf else w)
        for wv, v in adj[u]:
            if not visited[v]:
                heapq.heappush(pq, (wv, v))
    return np.asarray(order, dtype=np.int64), np.asarray(bars, dtype=np.float64)
