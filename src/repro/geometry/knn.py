"""k-nearest-neighbor queries over the kd-tree.

HDBSCAN* needs, for every point p, the distance to its minPts-th
nearest neighbor *including p itself* (the core distance, Section 2.1).
The kernel here is written so that a chunk of query ids can be shipped
to a Spark executor together with a broadcast tree
(``repro.engine.distribute.core_distances_spark``), mirroring the
paper's parallel k-NN [13].
"""
from __future__ import annotations

import heapq

import numpy as np

from .kdtree import KDTree


def _bbox_sqdist(tree: KDTree, node: int, q: np.ndarray) -> float:
    """Squared distance from point q to the node's bounding box (0 if
    inside) — the standard kd-tree pruning bound."""
    d = np.maximum(tree.bb_min[node] - q, 0.0) + np.maximum(q - tree.bb_max[node], 0.0)
    return float(d @ d)


def knn_one(tree: KDTree, q: np.ndarray, k: int) -> np.ndarray:
    """Distances (sorted ascending) to the k nearest points of ``q``
    among the tree's points, including an exact match if present.

    Best-first branch-and-bound: nodes are visited in order of their
    bbox distance to q; leaves are scanned vectorized; a max-heap keeps
    the best k distances seen.
    """
    heap: list[float] = []  # max-heap via negation, size <= k
    pq: list[tuple[float, int]] = [(0.0, 0)]
    while pq:
        bound, node = heapq.heappop(pq)
        if len(heap) == k and bound >= -heap[0]:
            break
        if tree.left[node] < 0:
            seg = tree.pts[tree.lo[node] : tree.hi[node]]
            diff = seg - q
            for sq in np.einsum("ij,ij->i", diff, diff):
                if len(heap) < k:
                    heapq.heappush(heap, -sq)
                elif sq < -heap[0]:
                    heapq.heapreplace(heap, -sq)
        else:
            for child in (int(tree.left[node]), int(tree.right[node])):
                b = _bbox_sqdist(tree, child, q)
                if len(heap) < k or b < -heap[0]:
                    heapq.heappush(pq, (b, child))
    # heap holds negated squared distances; sort ascending by distance.
    return np.sqrt(np.sort(-np.asarray(heap)))


def kth_distances(tree: KDTree, queries: np.ndarray, k: int) -> np.ndarray:
    """Core-distance kernel: for each row of ``queries`` return the
    distance to its k-th nearest tree point (including itself)."""
    out = np.empty(queries.shape[0])
    for i, q in enumerate(queries):
        out[i] = knn_one(tree, q, k)[-1]
    return out


def core_distances(points: np.ndarray, min_pts: int, leaf_size: int = 16) -> np.ndarray:
    """Sequential core distances for all points: cd(p) = distance to the
    minPts-th nearest neighbor of p, counting p itself."""
    from . import kdtree

    if not 1 <= min_pts <= points.shape[0]:
        raise ValueError("minPts must be between 1 and the number of points")
    tree = kdtree.build(points, leaf_size=leaf_size)
    cds = kth_distances(tree, points, min_pts)
    return cds
