"""Well-separated pair decomposition (Algorithm 1), vectorized.

The paper's FINDPAIR recursion is realized level-synchronously: the
frontier of node pairs lives in NumPy arrays and each level applies the
separation predicate / swap / split to the whole frontier at once. This
is the same computation DAG as Algorithm 1 (each pair is visited once),
just batched — which is what makes the driver-side traversals cheap
enough that the BCCP kernels remain the dominant (and Spark-distributed)
cost, matching the paper's Figure 8 decomposition.

Separation predicates:

* ``"s2"`` / float s — Callahan–Kosaraju well-separation (EMST and the
  HDBSCAN*-GanTao baseline use s = 2; approximate OPTICS uses
  s = sqrt(8/rho)).
* ``"hdbscan"`` — the paper's new notion (Section 3.2.2):
  geometrically-separated OR mutually-unreachable. Recursion terminates
  earlier, producing strictly fewer pairs; the pair-count ratio vs
  ``"s2"`` is one of the quantities recorded in EXPERIMENTS.md.
"""
from __future__ import annotations

import numpy as np

from ..geometry.kdtree import KDTree


class PairBudgetExceeded(RuntimeError):
    """Raised when a materialized WSPD would exceed ``max_pairs`` —
    the analogue of the paper's out-of-memory '-' cells in Tables 4-5."""


def v_center_dist(tree: KDTree, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance between the bounding-sphere centers of every frontier
    pair: the one per-pair distance a traversal level computes; the
    bounds and the separation predicate below are derived from it."""
    # np.take gathers rows about twice as fast as fancy indexing.
    d = np.take(tree.center, A, axis=0)
    d -= np.take(tree.center, B, axis=0)
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def v_gap(tree: KDTree, A: np.ndarray, B: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paper's d(A, B): min distance between bounding spheres, >= 0,
    from the center distances ``c``."""
    g = c - tree.radius[A] - tree.radius[B]
    return np.maximum(g, 0.0)


def v_gap_max(
    tree: KDTree, A: np.ndarray, B: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Paper's d_max(A, B): max distance between bounding spheres, from
    the center distances ``c``."""
    return c + tree.radius[A] + tree.radius[B]


def v_lower(
    tree: KDTree, A: np.ndarray, B: np.ndarray, star: bool, c: np.ndarray
) -> np.ndarray:
    """Lower bound on BCCP/BCCP* per pair with center distances ``c``
    (Figure 3a: the pair's line-segment representation)."""
    lb = v_gap(tree, A, B, c)
    if star:
        lb = np.maximum(lb, np.maximum(tree.cd_min[A], tree.cd_min[B]))
    return lb


def v_well_separated(
    tree: KDTree, A: np.ndarray, B: np.ndarray, kind: str | float, c: np.ndarray
) -> np.ndarray:
    """Vectorized separation predicate for frontier arrays A, B with
    center distances ``c``."""
    if kind == "hdbscan":
        if tree.cd_min is None:
            raise ValueError("hdbscan separation needs attach_core_distances()")
        gap = v_gap(tree, A, B, c)
        diam = 2.0 * np.maximum(tree.radius[A], tree.radius[B])
        geo = gap >= diam
        lhs = np.maximum(gap, np.maximum(tree.cd_min[A], tree.cd_min[B]))
        rhs = np.maximum(diam, np.maximum(tree.cd_max[A], tree.cd_max[B]))
        return geo | (lhs >= rhs)
    s = 2.0 if kind == "s2" else float(kind)
    rmax = np.maximum(tree.radius[A], tree.radius[B])
    return c - 2.0 * rmax >= s * rmax


def root_seeds(tree: KDTree) -> tuple[np.ndarray, np.ndarray]:
    """The FINDPAIR(left, right) seeds of Algorithm 1: one per internal
    node (the WSPD of a tree is the union over all internal nodes)."""
    internal = np.flatnonzero(tree.left >= 0)
    return tree.left[internal].astype(np.int64), tree.right[internal].astype(np.int64)


def split_frontier(
    tree: KDTree, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """FINDPAIR's split step for non-separated pairs: swap so A is the
    larger-diameter node, then replace (A, B) by (A.left, B), (A.right, B).

    The larger side is never a leaf: that needs both radii 0, and such a
    pair is well-separated under every predicate above. The children
    come in the pairs' order, left children first: a per-pair array
    ``x`` follows them as ``np.tile(x, 2)``.
    """
    swap = tree.radius[A] < tree.radius[B]
    A2 = np.where(swap, B, A)
    B2 = np.where(swap, A, B)
    nA = np.concatenate([tree.left[A2], tree.right[A2]]).astype(np.int64)
    nB = np.concatenate([B2, B2])
    return nA, nB


def wspd(
    tree: KDTree,
    kind: str | float = "s2",
    max_pairs: int | None = None,
) -> np.ndarray:
    """Materialize the full WSPD as an (k, 2) int64 array of node ids.

    Used by EMST-Naive and EMST-GFK (Algorithm 2 takes S as input);
    MemoGFK never calls this.
    """
    A, B = root_seeds(tree)
    out: list[np.ndarray] = []
    total = 0
    while A.size:
        ws = v_well_separated(tree, A, B, kind, v_center_dist(tree, A, B))
        if np.any(ws):
            rec = np.stack([A[ws], B[ws]], axis=1)
            out.append(rec)
            total += rec.shape[0]
        A, B = split_frontier(tree, A[~ws], B[~ws])
        if max_pairs is not None and total > max_pairs:
            raise PairBudgetExceeded(f"WSPD exceeded the {max_pairs}-pair budget")
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(out, axis=0)


def pair_point_count(tree: KDTree, pairs: np.ndarray) -> np.ndarray:
    """|A| + |B| for every pair — GFK's cardinality key (f_beta)."""
    sz = (tree.hi - tree.lo).astype(np.int64)
    return sz[pairs[:, 0]] + sz[pairs[:, 1]]


def separation_predicate(tree: KDTree, kind: str | float):
    """Scalar separation test (used by tests; the algorithms use the
    vectorized form)."""
    if kind == "hdbscan":
        if tree.cd_min is None:
            raise ValueError("hdbscan separation needs attach_core_distances()")
        return lambda a, b: tree.geo_separated(a, b) or tree.mutually_unreachable(a, b)
    s = 2.0 if kind == "s2" else float(kind)
    return lambda a, b: tree.well_separated(a, b, s)
