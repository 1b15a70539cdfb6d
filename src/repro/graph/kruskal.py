"""Kruskal's MST over explicit edge arrays.

Used as the per-batch subroutine of GFK/MemoGFK (Algorithms 2-3): each
call receives a batch of edges whose weights are no smaller than any
previously-processed batch, and the component labels persist across
calls, so processing batches in weight order is exactly Kruskal's
algorithm.
"""
from __future__ import annotations

import numpy as np


def spanning_forest(comp: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Sorted positions i of the edges (us[i], vs[i]) that stable Kruskal
    accepts on top of the component labels ``comp``, which it joins in
    place. Started from ``np.arange(n)``, comp[v] stays the smallest
    vertex of v's component.

    Boruvka rounds, each edge weighted by its position: every component
    takes its lowest-position edge, a mutual pair keeps the smaller label
    as root, all pointer-jump to the roots and edges now inside one
    component drop out. Distinct positions make the chosen edges the
    unique minimum spanning forest, which is what stable Kruskal accepts.
    """
    ids = np.arange(comp.size)
    pos = np.arange(us.size)
    cu, cv = comp[us], comp[vs]
    accepted = [pos[:0]]
    while (live := cu != cv).any():
        pos, cu, cv = pos[live], cu[live], cv[live]
        # Each component's lowest-position edge, as an index into pos.
        best = np.full(comp.size, pos.size)
        np.minimum.at(best, cu, np.arange(pos.size))
        np.minimum.at(best, cv, np.arange(pos.size))
        hooked = np.flatnonzero(best < pos.size)
        e = best[hooked]
        parent = ids.copy()
        parent[hooked] = np.where(cu[e] == hooked, cv[e], cu[e])
        # The only cycles are mutual pairs, which share their edge.
        root = (parent[parent[hooked]] == hooked) & (hooked < parent[hooked])
        parent[hooked[root]] = hooked[root]
        accepted.append(pos[e[~root]])
        while not np.array_equal(parent[parent], parent):
            parent = parent[parent]
        # Label every merged component by its smallest label.
        low = ids.copy()
        np.minimum.at(low, parent, ids)
        label = low[parent]
        cu, cv, comp[:] = label[cu], label[cv], label[comp]
    return np.sort(np.concatenate(accepted))


def kruskal_batch(
    us: np.ndarray,
    vs: np.ndarray,
    ws: np.ndarray,
    comp: np.ndarray,
    out_edges: list[np.ndarray],
) -> int:
    """Process one batch of edges in non-decreasing weight order on top
    of the component labels ``comp``, appending the accepted MST edges
    to ``out_edges`` as one (k, 3) [u, v, w] array. Returns k."""
    order = np.argsort(ws, kind="stable")
    us, vs, ws = us[order], vs[order], ws[order]
    keep = spanning_forest(comp, us, vs)
    out_edges.append(np.column_stack([us[keep], vs[keep], ws[keep]]).astype(np.float64))
    return int(keep.size)


def mst(n: int, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """One-shot Kruskal. Returns (m, 3) array of [u, v, w] rows; m may be
    < n-1 if the edge set does not connect the graph."""
    out: list[np.ndarray] = []
    kruskal_batch(np.asarray(us), np.asarray(vs), np.asarray(ws), np.arange(n), out)
    return out[0]
