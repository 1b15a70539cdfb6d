"""The block kernel for nearest-neighbour search, and k-NN core
distances on it.

Both nearest-neighbour searches of the repository scan *blocks* of the
run's kd-tree (``blocks``): for each query block they bound distances
by block bounding boxes (``box_chunks``) and then scan every block that
could hold a closer point in one dense array (``block_sqdists``). Both
steps are exact in floating point, so the searches are too. The
callers choose the radius and cut the dense array:

- HDBSCAN* needs, for every point p, the distance to its minPts-th
  nearest neighbor *including p itself* (the core distance, Section
  2.1). ``block_kth_distances`` computes it; the driver
  (``core_distances``) runs it over all blocks, and Spark executors run
  it over contiguous block ranges of a broadcast tree
  (``repro.engine.distribute.core_distances_spark``), mirroring the
  paper's parallel k-NN [13].
- ``repro.graph.boruvka`` finds each point's nearest point in another
  component.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .kdtree import KDTree

# Most points in one block: the query and candidate unit of the kernel.
_BLOCK = 16
# Cap on the (query block, block, dimension) cells of one chunk of the
# block-to-block bounding-box distances (bounds their temporaries).
_CHUNK_CELLS = 1 << 18


def _sqnorm(diff: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis. Point and box distances both
    go through this one ``einsum``, so they add their terms in the same
    order."""
    return np.einsum("...k,...k->...", diff, diff)


def blocks(tree: KDTree) -> np.ndarray:
    """Block node ids in point-row order: the maximal nodes holding at
    most ``_BLOCK`` points. Their ranges tile [0, n)."""
    size = tree.hi - tree.lo
    big = np.flatnonzero(size > _BLOCK)
    nodes = np.concatenate([[0], tree.left[big], tree.right[big]])
    nodes = nodes[size[nodes] <= _BLOCK]
    return nodes[np.argsort(tree.lo[nodes])]


def box_chunks(
    tree: KDTree, every: np.ndarray, query: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (chunk, near, far) for chunks of the ``query`` blocks:
    near[a, b] and far[a, b] are the squared min and max distances
    between the bounding boxes of chunk[a] and every[b].

    Both are exact bounds in floating point, not just up to rounding.
    Rounding is monotone: per coordinate, a box gap fl(min_B - max_A)
    is never larger than the rounded difference |fl(p - q)| of any
    points q in A, p in B, and a box span fl(max_B - min_A) never
    smaller; squares and sums of nonnegative terms keep that order, and
    ``_sqnorm`` adds the terms in the same order for boxes and points.
    So every point of B has a squared distance (as ``block_sqdists``
    computes it) from every point of A that lies in [near, far].
    """
    bmin, bmax = tree.bb_min[every], tree.bb_max[every]
    step = max(1, _CHUNK_CELLS // (every.size * tree.dim))
    for c in range(0, query.size, step):
        chunk = query[c : c + step]
        # Per coordinate, B lies above A by x and below A by y; the box
        # gap is max(x, y, 0) and the box span is |min(x, y)|.
        x = bmin - tree.bb_max[chunk, None]
        y = tree.bb_min[chunk, None] - bmax
        yield chunk, _sqnorm(np.maximum(np.maximum(x, y), 0.0)), _sqnorm(np.minimum(x, y))


def block_sqdists(tree: KDTree, block: int, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the points of the ``cand`` blocks, block by block, and
    the dense squared distances from every point of ``block`` to them,
    one row per point of ``block``."""
    n_c = tree.hi[cand] - tree.lo[cand]
    # Each block's lo, then counting up.
    rows = np.repeat(tree.lo[cand] - np.cumsum(n_c) + n_c, n_c) + np.arange(n_c.sum())
    q = tree.pts[tree.lo[block] : tree.hi[block]]
    return rows, _sqnorm(tree.pts[rows][None] - q[:, None])


def block_kth_distances(tree: KDTree, query: np.ndarray, k: int) -> np.ndarray:
    """Distance from every point of the ``query`` blocks (a contiguous
    run of ``blocks``) to its k-th nearest tree point, counting the
    point itself; returned for the rows tree.lo[query[0]] ..
    tree.hi[query[-1]] of ``tree.pts``, in row order.

    For each chunk of query blocks A, taking blocks B in order of
    ``far`` (``box_chunks``) until they hold k points gives a radius r
    with at least k points within r of every point of A, so the
    candidates are the blocks with ``near`` <= r. One dense array of
    squared distances from A's points to the candidates' points
    (``block_sqdists``), cut by ``np.partition``, gives the k-th
    distances. As the box bounds are exact, every point of the blocks
    taken has a computed squared distance <= r and every point outside
    the candidates one > r, so the k-th smallest computed distance is
    the same over the candidates as over all points.
    """
    every = blocks(tree)
    size = tree.hi[every] - tree.lo[every]
    base = int(tree.lo[query[0]])
    out = np.empty(int(tree.hi[query[-1]]) - base)
    for chunk, near, far in box_chunks(tree, every, query):
        # The k blocks with the smallest far hold >= k points.
        m = min(k, every.size)
        by_far = np.argpartition(far, m - 1, axis=1)[:, :m]
        rows = np.arange(chunk.size)[:, None]
        by_far = by_far[rows, np.argsort(far[rows, by_far], axis=1)]
        first = np.argmax(np.cumsum(size[by_far], axis=1) >= k, axis=1)
        r = far[rows[:, 0], by_far[rows[:, 0], first]]
        for a, block in enumerate(chunk):
            _, d2 = block_sqdists(tree, block, every[near[a] <= r[a]])
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            out[tree.lo[block] - base : tree.hi[block] - base] = np.sqrt(kth)
    return out


def core_distances(tree: KDTree, min_pts: int) -> np.ndarray:
    """Sequential core distances for all points of ``tree``, indexed by
    original id: cd(p) = distance to the minPts-th nearest neighbor of
    p, counting p itself."""
    if not 1 <= min_pts <= tree.n:
        raise ValueError("minPts must be between 1 and the number of points")
    cds = np.empty(tree.n)
    cds[tree.perm] = block_kth_distances(tree, blocks(tree), min_pts)
    return cds
