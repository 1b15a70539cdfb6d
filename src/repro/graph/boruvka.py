"""Sequential kd-tree Boruvka EMST — the mlpack baseline of Table 3.

The paper's Table 3 benchmarks mlpack's Dual-Tree Boruvka [March et
al. 2010] as the external sequential EMST baseline. mlpack is not
available offline, so this module implements the same algorithmic
family from scratch: Boruvka rounds where every component finds its
minimum-weight outgoing edge through pruned kd-tree traversals
(per-point nearest-other-component queries with component-pruned
subtrees), then all component edges are merged at once.

This is the stand-in whose times populate our Table 3 (DESIGN.md §4
documents the substitution); correctness is enforced against the same
Prim oracle as the paper's own methods.
"""
from __future__ import annotations

import numpy as np

from ..core.gfk import mono_labels
from ..geometry import kdtree as kdt
from .kruskal import kruskal_batch

# Nodes with at most this many points are scanned whole, not descended.
_BLOCK = 32


def _nearest_other(
    tree: kdt.KDTree,
    q: np.ndarray,
    my_label: int,
    labels_reordered: np.ndarray,
    mono: np.ndarray,
    bound: float,
) -> tuple[float, int]:
    """Nearest point to q whose component label differs from my_label.

    Returns (distance, reordered_index) or (inf, -1). ``bound`` is an
    upper bound (e.g. the component's current best edge) used to prune
    from the start — the dual-tree flavor of March et al.
    """
    best_d2 = bound * bound
    best_i = -1
    stack = [(0.0, 0)]
    bb_min, bb_max = tree.bb_min, tree.bb_max
    left, right, lo, hi = tree.left, tree.right, tree.lo, tree.hi
    while stack:
        d2, node = stack.pop()
        if d2 >= best_d2 or mono[node] == my_label:
            continue
        if hi[node] - lo[node] <= _BLOCK:
            seg = tree.pts[lo[node] : hi[node]]
            diff = seg - q
            dd = np.einsum("ij,ij->i", diff, diff)
            dd[labels_reordered[lo[node] : hi[node]] == my_label] = np.inf
            j = int(np.argmin(dd))
            if dd[j] < best_d2:
                best_d2 = float(dd[j])
                best_i = int(lo[node]) + j
        else:
            children = []
            for c in (int(left[node]), int(right[node])):
                delta = np.maximum(bb_min[c] - q, 0.0) + np.maximum(
                    q - bb_max[c], 0.0
                )
                children.append((float(delta @ delta), c))
            # Visit the nearer child first (it is pushed last).
            children.sort(key=lambda t: -t[0])
            for cd2, c in children:
                if cd2 < best_d2 and mono[c] != my_label:
                    stack.append((cd2, c))
    return (np.sqrt(best_d2) if best_i >= 0 else np.inf), best_i


def emst_boruvka(points: np.ndarray) -> np.ndarray:
    """EMST via Boruvka rounds with kd-tree component-pruned nearest-
    neighbor queries. Returns (n-1, 3) [u, v, w] rows."""
    tree = kdt.build(points)
    n = tree.n
    comp = np.arange(n)
    out = [np.empty((0, 3))]
    while comp.any():  # once spanned, every label is 0 (the smallest vertex)
        lab_re = comp[tree.perm]
        mono = mono_labels(tree, comp)
        # Each component's best edge so far, by component label.
        best_w = np.full(n, np.inf)
        best_uv = np.empty((n, 2), dtype=np.int64)
        # Iterate in reordered order so queries reuse spatial locality.
        for pos in range(n):
            ml = int(lab_re[pos])
            d, j = _nearest_other(tree, tree.pts[pos], ml, lab_re, mono, best_w[ml])
            if j >= 0 and d < best_w[ml]:
                best_w[ml] = d
                best_uv[ml] = tree.perm[pos], tree.perm[j]
        found = np.flatnonzero(best_w < np.inf)
        if not kruskal_batch(best_uv[found, 0], best_uv[found, 1], best_w[found], comp, out):
            raise RuntimeError("Boruvka made no progress (bug)")
    return np.concatenate(out)
