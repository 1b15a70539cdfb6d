"""k-nearest-neighbor core distances over the kd-tree.

HDBSCAN* needs, for every point p, the distance to its minPts-th
nearest neighbor *including p itself* (the core distance, Section 2.1).
``leaf_kth_distances`` is the one kernel, a leaf-block brute force: for
each query leaf it bounds the k-th distance by leaf bounding boxes and
then scans every leaf that could hold a closer point in one dense
block. The driver (``core_distances``) runs it over all leaves, and
Spark executors run it over contiguous leaf ranges of a broadcast tree
(``repro.engine.distribute.core_distances_spark``), mirroring the
paper's parallel k-NN [13].
"""
from __future__ import annotations

import numpy as np

from .kdtree import KDTree

# Cap on the (query leaf, leaf, dimension) cells of one chunk of the
# leaf-to-leaf bounding-box distances (bounds their temporaries).
_CHUNK_CELLS = 1 << 18


def _sqnorm(diff: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis. Point and box distances both
    go through this one ``einsum``, so they add their terms in the same
    order."""
    return np.einsum("...k,...k->...", diff, diff)


def sorted_leaves(tree: KDTree) -> np.ndarray:
    """Leaf node ids in point-row order; their ranges tile [0, n)."""
    leaves = np.flatnonzero(tree.left < 0)
    return leaves[np.argsort(tree.lo[leaves], kind="stable")]


def leaf_kth_distances(tree: KDTree, leaves: np.ndarray, k: int) -> np.ndarray:
    """Distance from every point of the query ``leaves`` (a contiguous
    run of ``sorted_leaves``) to its k-th nearest tree point, counting
    the point itself; returned for the rows tree.lo[leaves[0]] ..
    tree.hi[leaves[-1]] of ``tree.pts``, in row order.

    For each chunk of query leaves A the leaf-to-leaf box distances are
    computed for every leaf B: ``near`` (the squared min distance) and
    ``far`` (the squared max distance). Taking leaves in order of
    ``far`` until they hold k points gives a radius r with at least k
    points within r of every point of A, so the candidates are the
    leaves with ``near`` <= r. One dense block of squared distances
    from A's points to the candidates' points, cut by ``np.partition``,
    gives the k-th distances.

    The result is exact in floating point, not just up to rounding.
    Rounding is monotone: per coordinate, a box gap fl(min_B - max_A)
    is never larger than the rounded difference |fl(p - q)| of any
    points q in A, p in B, and a box span fl(max_B - min_A) never
    smaller; squares and sums of nonnegative terms keep that order, and
    ``_sqnorm`` adds the terms in the same order for boxes and points.
    So every point of the leaves taken has a computed squared distance
    <= r, every point outside the candidates one > r, and the k-th
    smallest computed distance is the same over the candidates as over
    all points.
    """
    all_leaves = sorted_leaves(tree)
    lo = tree.lo[all_leaves]
    size = tree.hi[all_leaves] - lo
    bmin, bmax = tree.bb_min[all_leaves], tree.bb_max[all_leaves]
    pts = tree.pts
    base = int(tree.lo[leaves[0]])
    out = np.empty(int(tree.hi[leaves[-1]]) - base)
    step = max(1, _CHUNK_CELLS // (all_leaves.size * tree.dim))
    for c in range(0, leaves.size, step):
        chunk = leaves[c : c + step]
        # Per coordinate, B lies above A by x and below A by y; the box
        # gap is max(x, y, 0) and the box span is |min(x, y)|.
        x = bmin - tree.bb_max[chunk, None]
        y = tree.bb_min[chunk, None] - bmax
        near = _sqnorm(np.maximum(np.maximum(x, y), 0.0))
        far = _sqnorm(np.minimum(x, y))
        # The k leaves with the smallest far hold >= k points.
        m = min(k, all_leaves.size)
        by_far = np.argpartition(far, m - 1, axis=1)[:, :m]
        rows = np.arange(chunk.size)[:, None]
        by_far = by_far[rows, np.argsort(far[rows, by_far], axis=1)]
        first = np.argmax(np.cumsum(size[by_far], axis=1) >= k, axis=1)
        r = far[rows[:, 0], by_far[rows[:, 0], first]]
        for a, leaf in enumerate(chunk):
            cand = np.flatnonzero(near[a] <= r[a])
            n_c = size[cand]
            # Rows of the candidate leaves: each leaf's lo, then counting up.
            idx = np.repeat(lo[cand] - np.cumsum(n_c) + n_c, n_c) + np.arange(n_c.sum())
            q = pts[tree.lo[leaf] : tree.hi[leaf]]
            d2 = _sqnorm(pts[idx][None] - q[:, None])
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            out[tree.lo[leaf] - base : tree.hi[leaf] - base] = np.sqrt(kth)
    return out


def core_distances(points: np.ndarray, min_pts: int, leaf_size: int = 16) -> np.ndarray:
    """Sequential core distances for all points: cd(p) = distance to the
    minPts-th nearest neighbor of p, counting p itself."""
    from . import kdtree

    if not 1 <= min_pts <= points.shape[0]:
        raise ValueError("minPts must be between 1 and the number of points")
    tree = kdtree.build(points, leaf_size=leaf_size)
    cds = np.empty(tree.n)
    cds[tree.perm] = leaf_kth_distances(tree, sorted_leaves(tree), min_pts)
    return cds
