"""Bichromatic closest pair kernels (BCCP and BCCP*).

BCCP(A, B): the two points u in A, v in B minimizing Euclidean
distance. BCCP*(A, B): the pair minimizing the *mutual reachability*
distance max{cd(u), cd(v), d(u, v)} (Section 2.3).

These kernels are the quadratic work of Theorems 3.1/3.3. Every round
of GFK/MemoGFK (and EMST-Naive's single pass) hands its whole batch of
pairs to ``bccp_batch``. Pairs of more than ``_LEAF_CELLS`` cross cells
are first cut into sub-pairs by one pruned, level-synchronous dual-tree
descent, which drops the sub-pairs whose bounding boxes are farther
apart than a weight the pair is known to reach. The (sub-)pairs with
few cross cells are then solved together by one segmented, vectorized
pass, and the others one by one by the blocked matmul kernels. Spark
executors call the same ``bccp_batch`` on the broadcast tree (see
``repro.engine.distribute``).
"""
from __future__ import annotations

import numpy as np

from ..geometry.kdtree import KDTree

# Cap on the number of matrix cells materialized per chunk; large pairs
# are processed in row blocks so memory stays bounded.
_CHUNK_CELLS = 1 << 18
# Pairs with at most this many cross cells |A||B| are solved by the
# segmented pass of ``bccp_batch``; below it one matmul kernel call
# costs more in fixed overhead than the pair's distance cells.
_SMALL_CELLS = 512
# Cross cells per chunk of the segmented pass (bounds its temporaries).
_SEG_CHUNK_CELLS = 1 << 16
# Pairs of more than this many cross cells are cut by the pruned
# descent of ``_descend``, which stops splitting a sub-pair at this
# size. Smaller leaves prune more cells but cost more levels and more
# kernel calls: 2**12 and 2**10 were no faster on the table sets.
_LEAF_CELLS = 1 << 14


def _dist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise |P - Q| from coordinate differences, in the same
    floating-point form as the WSPD bounds (``wspd.v_center_dist``): a
    pair of zero-radius nodes (coincident duplicates) then gets a weight
    bit-equal to the bounds the MemoGFK rounds compare it with."""
    d = P - Q
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _first_min(key: np.ndarray, seg: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Position of the first minimal ``key`` of every segment (``seg``
    labels each position, ``starts`` are the segment starts)."""
    hit = np.flatnonzero(key == np.minimum.reduceat(key, starts)[seg])
    return hit[np.r_[True, seg[hit[1:]] != seg[hit[:-1]]]]


def _weights(
    pts: np.ndarray, cd: np.ndarray | None, i: np.ndarray, j: np.ndarray
) -> np.ndarray:
    """Weights of the cells (i[k], j[k]), rows of ``pts``, in
    ``_dist`` form; BCCP* when core distances ``cd`` are given."""
    w = _dist(pts[i], pts[j])
    if cd is not None:
        w = np.maximum(w, np.maximum(cd[i], cd[j]))
    return w


def bccp_kernel(
    P: np.ndarray,
    Q: np.ndarray,
    cdP: np.ndarray | None = None,
    cdQ: np.ndarray | None = None,
) -> tuple[int, int, float]:
    """Closest cross pair between point blocks P (a, d) and Q (b, d);
    BCCP* under mutual reachability distance when the blocks' core
    distances cdP, cdQ are given. Returns (i, j, w) with i indexing P
    and j indexing Q.

    The squared-distance matrix uses the fast expanded (matmul) form on
    coordinates relative to P[0], so far-from-origin inputs do not lose
    the cross distances to cancellation; the winning pair's distance is
    then recomputed from coordinate differences, which is exact to
    machine precision (the expanded form still cancels for
    near-coincident points).
    """
    Ps, Qs = P - P[0], Q - P[0]
    rows = max(1, _CHUNK_CELLS // max(1, Q.shape[0]))
    best = (0, 0, np.inf)
    for lo in range(0, P.shape[0], rows):
        blk = Ps[lo : lo + rows]
        key = (
            np.einsum("id,id->i", blk, blk)[:, None]
            + np.einsum("jd,jd->j", Qs, Qs)[None, :]
            - 2.0 * (blk @ Qs.T)
        )
        if cdP is not None:
            key = np.maximum(
                np.sqrt(np.maximum(key, 0.0)),
                np.maximum(cdP[lo : lo + rows, None], cdQ[None, :]),
            )
        i, j = divmod(int(np.argmin(key)), Q.shape[0])
        i += lo
        w = float(_dist(P[i, None], Q[j, None])[0])
        if cdP is not None:
            w = max(w, float(cdP[i]), float(cdQ[j]))
        if w < best[2]:
            best = (i, j, w)
    return best


def _tree_bccp(
    tree: KDTree, a: int, b: int, cd: np.ndarray | None
) -> tuple[int, int, float]:
    """``bccp_kernel`` on the point ranges of nodes a and b (BCCP* when
    the reordered core distances ``cd`` are given), in original ids."""
    A = slice(int(tree.lo[a]), int(tree.hi[a]))
    B = slice(int(tree.lo[b]), int(tree.hi[b]))
    cds = () if cd is None else (cd[A], cd[B])
    i, j, w = bccp_kernel(tree.pts[A], tree.pts[B], *cds)
    return int(tree.perm[A.start + i]), int(tree.perm[B.start + j]), w


def bccp(tree: KDTree, a: int, b: int) -> tuple[int, int, float]:
    """BCCP between tree nodes a and b, in original point ids."""
    return _tree_bccp(tree, a, b, None)


def bccp_star(tree: KDTree, a: int, b: int) -> tuple[int, int, float]:
    """BCCP* between tree nodes a and b, in original point ids.
    Requires ``attach_core_distances``."""
    assert tree.cd is not None
    return _tree_bccp(tree, a, b, tree.cd)


def _segmented(
    pts: np.ndarray,
    cd: np.ndarray | None,
    alo: np.ndarray,
    na: np.ndarray,
    blo: np.ndarray,
    nb: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closest cross pair of every segment k, the rows
    [alo[k], alo[k] + na[k]) x [blo[k], blo[k] + nb[k]) of ``pts``; BCCP*
    when core distances ``cd`` are given. Returns (i, j, w) with i, j
    row indices into ``pts``.

    All cross cells of a chunk of segments are laid out flat (via
    ``np.repeat``), their distances come from direct coordinate
    differences (no cancellation), and each segment keeps its first
    minimal cell (``np.minimum.reduceat`` plus first hit).
    """
    k = alo.size
    cols = np.ascontiguousarray(pts.T)
    ii = np.empty(k, dtype=np.int64)
    jj = np.empty(k, dtype=np.int64)
    cells = na * nb
    ends = np.cumsum(cells)
    lo = 0
    while lo < k:
        base = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, base + _SEG_CHUNK_CELLS, "right"))
        hi = max(hi, lo + 1)  # a pair larger than a chunk is its own chunk
        c = cells[lo:hi]
        start = ends[lo:hi] - c - base
        seg = np.repeat(np.arange(hi - lo), c)
        q, r = np.divmod(np.arange(int(c.sum())) - start[seg], nb[lo:hi][seg])
        I = alo[lo:hi][seg] + q
        J = blo[lo:hi][seg] + r
        key = np.zeros(I.size)
        for x in cols:  # 1-D gathers per coordinate beat row gathers
            dx = x[I] - x[J]
            key += dx * dx
        if cd is not None:
            key = np.maximum(np.sqrt(key), np.maximum(cd[I], cd[J]))
        first = _first_min(key, seg, start)
        ii[lo:hi] = I[first]
        jj[lo:hi] = J[first]
        lo = hi
    return ii, jj, _weights(pts, cd, ii, jj)  # as in bccp_kernel


def _nearest(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For every k, the row of [lo[k], hi[k]) nearest the point q[k]."""
    size = hi - lo
    starts = np.cumsum(size) - size
    seg = np.repeat(np.arange(lo.size), size)
    rows = lo[seg] + np.arange(seg.size) - starts[seg]
    d = pts[rows] - q[seg]
    return rows[_first_min(np.einsum("ij,ij->i", d, d), seg, starts)]


def _box_gap(tree: KDTree, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between the bounding boxes of nodes a and b, in
    ``_dist`` form. Box corners are point coordinates and rounding is
    monotone, so it is never above the rounded ``_dist`` of a cell of
    the pair (the argument of ``knn.block_kth_distances``)."""
    d = np.maximum(tree.bb_min[a] - tree.bb_max[b], tree.bb_min[b] - tree.bb_max[a])
    d = np.maximum(d, 0.0)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _descend(
    tree: KDTree, cd: np.ndarray | None, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint sub-pairs (k, a, b), a a node under A[k] and b under
    B[k], whose cells hold every lightest cell of the pair
    (A[k], B[k]) under BCCP (BCCP* if ``cd``).

    One level-synchronous dual-tree descent over all pairs at once (as
    in dual-tree closest-pair codes, March, Ram and Gray, KDD 2010).
    ``best[k]`` is a weight pair k reaches: first that of the A point
    nearest B's center and the B point nearest it, then lowered every
    level by one real cell of each sub-pair. A sub-pair is dropped when
    its box gap (for BCCP*, at least its larger cd_min) exceeds
    ``best``, so it holds no cell as light as ``best``: ties survive.
    Otherwise it stops at ``_LEAF_CELLS`` cells or splits its
    larger-radius side. Where both halves of a sub-pair survive whole,
    the sub-pair is returned instead, so a pair the boxes cannot prune
    stays one block for the matmul kernel.
    """
    sz = tree.hi - tree.lo
    i = _nearest(tree.pts, tree.lo[A], tree.hi[A], tree.center[B])
    j = _nearest(tree.pts, tree.lo[B], tree.hi[B], tree.pts[i])
    best = _weights(tree.pts, cd, i, j)
    levels = []
    k, a, b, up = np.arange(A.size), A, B, None
    while k.size:
        lb = _box_gap(tree, a, b)
        if cd is not None:
            lb = np.maximum(lb, np.maximum(tree.cd_min[a], tree.cd_min[b]))
        np.minimum.at(best, k, _weights(tree.pts, cd, tree.lo[a], tree.lo[b]))
        live = lb <= best[k]
        leaf = live & (sz[a] * sz[b] <= _LEAF_CELLS)
        levels.append((k, a, b, lb, leaf, up))
        # Split the larger-radius side (as wspd.split_frontier), or the
        # one that is not a leaf; ``up`` maps each half to its sub-pair.
        g = np.flatnonzero(live & ~leaf)
        on_a = (tree.left[b[g]] < 0) | (
            (tree.radius[a[g]] >= tree.radius[b[g]]) & (tree.left[a[g]] >= 0)
        )
        ga, gb = g[on_a], g[~on_a]  # split on their A side / B side
        up = np.concatenate([ga, ga, gb, gb])
        k = k[up]
        a = np.concatenate([tree.left[a[ga]], tree.right[a[ga]], a[gb], a[gb]])
        b = np.concatenate([b[ga], b[ga], tree.left[b[gb]], tree.right[b[gb]]])
    # Bottom up: a sub-pair is whole when it is a leaf that survives the
    # final best, or both its halves are whole. Each maximal whole
    # sub-pair is one block for the kernels.
    out, below = [], None
    for k, a, b, lb, leaf, up in reversed(levels):
        whole = leaf & (lb <= best[k])
        if below is not None:
            bk, ba, bb, bwhole, bup = below
            whole |= np.bincount(bup, weights=bwhole, minlength=k.size) == 2
            top = bwhole & ~whole[bup]
            out.append((bk[top], ba[top], bb[top]))
        below = (k, a, b, whole, up)
    k, a, b, whole, _ = below
    out.append((k[whole], a[whole], b[whole]))
    return tuple(np.concatenate(x) for x in zip(*out))


def bccp_batch(
    tree: KDTree, A: np.ndarray, B: np.ndarray, star: bool = False
) -> np.ndarray:
    """BCCP (BCCP* if ``star``) of every node pair (A[k], B[k]), as a
    (k, 3) [u, v, w] array in original point ids, u in A[k] and v in
    B[k].

    Pairs of more than ``_LEAF_CELLS`` cells are cut into the sub-pairs
    of one pruned descent (``_descend``). Every (sub-)pair of at most
    ``_SMALL_CELLS`` cells is solved by one ``_segmented`` call; every
    larger one calls ``bccp``/``bccp_star``. A cut pair takes the
    lightest cell of its sub-pairs, ties to the smallest (row in A, row
    in B) in tree order: the first minimal cell, as the kernels pick it.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    cd = tree.cd if star else None
    sz = tree.hi - tree.lo
    cells = sz[A] * sz[B]
    cut = cells > _LEAF_CELLS
    k, a, b = slice(None), A, B  # the candidate (sub-)pairs of pairs k
    if cut.any():
        ck, ca, cb = _descend(tree, cd, A[cut], B[cut])
        k = np.concatenate([np.flatnonzero(~cut), np.flatnonzero(cut)[ck]])
        a, b = np.concatenate([A[~cut], ca]), np.concatenate([B[~cut], cb])
        cells = sz[a] * sz[b]
    small = cells <= _SMALL_CELLS
    s = slice(None) if small.all() else small
    i = np.empty(a.size, dtype=np.int64)
    j = np.empty(a.size, dtype=np.int64)
    w = np.empty(a.size)
    i[s], j[s], w[s] = _segmented(tree.pts, cd, tree.lo[a[s]], sz[a[s]], tree.lo[b[s]], sz[b[s]])
    if not small.all():
        fn = bccp_star if star else bccp
        uvw = np.array([fn(tree, x, y) for x, y in zip(a[~small].tolist(), b[~small].tolist())])
        row = np.empty_like(tree.perm)  # original id -> row
        row[tree.perm] = np.arange(tree.n)
        i[~small] = row[uvw[:, 0].astype(np.int64)]
        j[~small] = row[uvw[:, 1].astype(np.int64)]
        w[~small] = uvw[:, 2]
    if cut.any():
        order = np.lexsort((j, i, w, k))
        t = order[np.r_[True, k[order[1:]] != k[order[:-1]]]]
        k, i, j, w = k[t], i[t], j[t], w[t]
    out = np.empty((A.size, 3))
    out[k, 0] = tree.perm[i]
    out[k, 1] = tree.perm[j]
    out[k, 2] = w
    return out
