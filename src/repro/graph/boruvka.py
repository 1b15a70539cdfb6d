"""Sequential Boruvka EMST over the k-NN blocks — the mlpack baseline of
Table 3.

The paper's Table 3 benchmarks mlpack's Dual-Tree Boruvka [March et
al. 2010] as the external sequential EMST baseline. mlpack is not
available offline, so this module implements the same algorithmic
family from scratch: Boruvka rounds in which every point finds its
nearest point in another component, and every component's lightest
such edge is merged at once. The queries run on the k-NN kernel's block
layout (``repro.geometry.knn``): block-to-block box bounds prune the
candidate blocks, and one dense array per query block scans the rest.

This is the stand-in whose times populate our Table 3 (DESIGN.md §4
documents the substitution); correctness is enforced against the same
Prim oracle as the paper's own methods.
"""
from __future__ import annotations

import numpy as np

from ..core.gfk import mono_labels
from ..geometry import kdtree as kdt
from ..geometry import knn
from .kruskal import kruskal_batch


def emst_boruvka(points: np.ndarray) -> np.ndarray:
    """EMST via Boruvka rounds of nearest-other-component queries over
    the k-NN blocks. Returns (n-1, 3) [u, v, w] rows.

    For query block A, r is the smallest ``far`` to a block sure to
    hold a point of another component than each point of A: a mixed
    block (A itself, if mixed), or, if A lies in one component, a whole
    block of another. The candidates are the blocks with ``near`` <= r
    that do not lie wholly in A's component. The box bounds are exact
    (``knn.box_chunks``), so each point's nearest computed distance to
    another component is <= r and found among the candidates.
    """
    tree = kdt.build(points)
    every = knn.blocks(tree)
    comp = np.arange(tree.n)
    out = [np.empty((0, 3))]
    while comp.any():  # once spanned, every label is 0 (the smallest vertex)
        lab = comp[tree.perm]
        mono = mono_labels(tree, comp)
        theirs = mono[every]
        # Per row of tree.pts: squared distance to, and row of, its
        # nearest point in another component.
        d2 = np.empty(tree.n)
        nearest = np.empty(tree.n, dtype=np.int64)
        for chunk, near, far in knn.box_chunks(tree, every, every):
            mine = mono[chunk, None]
            other = (theirs == -1) | ((mine != -1) & (theirs != mine))
            r = np.where(other, far, np.inf).min(axis=1)
            keep = (near <= r[:, None]) & ((mine == -1) | (theirs != mine))
            for a, block in enumerate(chunk):
                rows, dd = knn.block_sqdists(tree, block, every[keep[a]])
                lo, hi = tree.lo[block], tree.hi[block]
                dd[lab[rows] == lab[lo:hi, None]] = np.inf
                j = np.argmin(dd, axis=1)
                nearest[lo:hi] = rows[j]
                d2[lo:hi] = dd[np.arange(hi - lo), j]
        # Each component's lightest (d, row) edge.
        order = np.argsort(d2, kind="stable")
        best = order[np.unique(lab[order], return_index=True)[1]]
        u, v = tree.perm[best], tree.perm[nearest[best]]
        if not kruskal_batch(u, v, np.sqrt(d2[best]), comp, out):
            raise RuntimeError("Boruvka made no progress (bug)")
    return np.concatenate(out)
