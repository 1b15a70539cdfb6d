"""Bichromatic closest pair kernels (BCCP and BCCP*).

BCCP(A, B): the two points u in A, v in B minimizing Euclidean
distance. BCCP*(A, B): the pair minimizing the *mutual reachability*
distance max{cd(u), cd(v), d(u, v)} (Section 2.3).

These kernels are the quadratic work of Theorems 3.1/3.3. Every round
of GFK/MemoGFK (and EMST-Naive's single pass) hands its whole batch of
pairs to ``bccp_batch``: pairs with few cross cells are solved together
by one segmented, vectorized pass; larger pairs go one by one through
the blocked matmul kernels. Spark executors call the same
``bccp_batch`` on the broadcast tree (see ``repro.engine.distribute``).
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


def _dist(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Row-wise |P - Q| from coordinate differences, in the same
    floating-point form as the WSPD bounds (``wspd.v_center_dist``): a
    pair of zero-radius nodes (coincident duplicates) then gets a weight
    bit-equal to the bounds the MemoGFK rounds compare it with."""
    d = P - Q
    return np.sqrt(np.einsum("ij,ij->i", d, d))


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
        hit = np.flatnonzero(key == np.minimum.reduceat(key, start)[seg])
        first = hit[np.r_[True, seg[hit[1:]] != seg[hit[:-1]]]]
        ii[lo:hi] = I[first]
        jj[lo:hi] = J[first]
        lo = hi
    ww = _dist(pts[ii], pts[jj])  # the winners' weights, as in bccp_kernel
    if cd is not None:
        ww = np.maximum(ww, np.maximum(cd[ii], cd[jj]))
    return ii, jj, ww


def bccp_batch(
    tree: KDTree, A: np.ndarray, B: np.ndarray, star: bool = False
) -> np.ndarray:
    """BCCP (BCCP* if ``star``) of every node pair (A[k], B[k]), as a
    (k, 3) [u, v, w] array in original point ids.

    Pairs with at most ``_SMALL_CELLS`` cross cells are solved together
    by ``_segmented``; each larger pair calls ``bccp``/``bccp_star``.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    out = np.empty((A.size, 3))
    na = tree.hi[A] - tree.lo[A]
    nb = tree.hi[B] - tree.lo[B]
    large = na * nb > _SMALL_CELLS
    small = np.flatnonzero(~large)
    i, j, w = _segmented(
        tree.pts,
        tree.cd if star else None,
        tree.lo[A[small]],
        na[small],
        tree.lo[B[small]],
        nb[small],
    )
    out[small, 0] = tree.perm[i]
    out[small, 1] = tree.perm[j]
    out[small, 2] = w
    fn = bccp_star if star else bccp
    for k in np.flatnonzero(large):
        out[k] = fn(tree, int(A[k]), int(B[k]))
    return out
