"""Ordered dendrogram and reachability plot (Section 4).

Given a weighted spanning tree (the EMST for single-linkage clustering,
or the HDBSCAN* mutual-reachability MST), build the *ordered
dendrogram* of a starting vertex s: the binary tree whose internal
nodes are the tree edges (split heights = edge weights) and whose
in-order leaf traversal is exactly Prim's visit order from s — i.e. the
reachability plot (Theorem 4.2).

Node t is the tree edge of rank t in stable weight order, so the root
is node n - 2, and its left child holds the endpoint nearer s in hops
(the ordering rule of Theorem 4.2). Under the strict order (weight,
rank) the ordered dendrogram is unique: node t's children are the
roots of its endpoints' components among the lower-rank edges, and a
component's root is its maximum-rank edge. Two constructions return
equal arrays (tests enforce it):

* ``dendrogram_sequential`` — the classic bottom-up agglomerative
  algorithm: one union-find pass over the edges in rank order.
* ``dendrogram_topdown`` — the paper's divide-and-conquer, which takes
  the heaviest ~n/10 edges as the heavy subproblem and recurses on the
  light edges. Its light-edge recursion is unrolled into bands of rank
  order (``_bands``): each level's heavy edges, contracted by the
  components of all lighter edges. Since a component's root is known
  without solving it, every band is independent of the others. With a
  SparkSession the bands are solved in one Spark fan-out once their
  edges reach its break-even (the paper's implementation note:
  parallelism across subproblems).

Node encoding: the dendrogram over n leaves has n-1 internal nodes in
flat arrays ``left``/``right``/``weight``. A child reference r is a
leaf vertex v when r < 0 (encoded -(v+1)) and an internal node index
otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..graph.kruskal import spanning_forest

if TYPE_CHECKING:
    from pyspark.sql import SparkSession

# Bands hold at most this many edges; each is solved bottom-up.
_SEQ_CUTOFF = 256
_HEAVY_FRAC = 0.1  # the paper's n/10 heavy edges


def leaf_ref(v: int) -> int:
    return -(v + 1)


def is_leaf(ref: int) -> bool:
    return ref < 0


def leaf_vertex(ref: int) -> int:
    return -ref - 1


@dataclass
class Dendrogram:
    """Ordered dendrogram over n leaves (see module docstring)."""

    n: int
    left: np.ndarray    # (n-1,) child refs
    right: np.ndarray   # (n-1,)
    weight: np.ndarray  # (n-1,) split heights
    root: int           # ref of the root

    def reachability(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, bars): the reachability plot. bars[0] = inf; for
        i > 0, bars[i] is the weight of the internal node between
        leaves i-1 and i in the in-order traversal (their LCA), which
        equals min_{j<i} d_m(p_i, p_j) for an ordered dendrogram."""
        order = np.empty(self.n, dtype=np.int64)
        bars = np.empty(self.n)
        k = 0
        last_internal = np.inf
        stack: list[int] = []
        cur = self.root
        while True:
            while not is_leaf(cur):
                stack.append(cur)
                cur = int(self.left[cur])
            order[k] = leaf_vertex(cur)
            bars[k] = last_internal
            k += 1
            if not stack:
                break
            node = stack.pop()
            last_internal = float(self.weight[node])
            cur = int(self.right[node])
        assert k == self.n
        return order, bars


def vertex_distances(n: int, edges: np.ndarray, s: int = 0) -> np.ndarray:
    """Unweighted hop distance from s in the tree (BFS) — the paper's
    'vertex distances' (their Euler-tour list-ranking step), from which
    every edge's left/right side is set once."""
    heads = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.int64)
    tails = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.int64)
    order = np.argsort(heads, kind="stable")
    starts = np.searchsorted(heads[order], np.arange(n + 1)).tolist()
    tails = tails[order].tolist()
    dist = [-1] * n
    dist[s] = 0
    queue = [s]
    for u in queue:  # the queue grows while it is walked
        du = dist[u] + 1
        for v in tails[starts[u] : starts[u + 1]]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    if len(queue) < n:
        raise ValueError("edges do not form a spanning tree")
    return np.array(dist, dtype=np.int64)


def _bottom_up(
    t: int, lu: np.ndarray, lv: np.ndarray, refs: np.ndarray
) -> tuple[list[int], list[int]]:
    """Classic agglomerative construction over a forest whose edges are
    already in rank order: edge i joins local vertices lu[i] (the left
    side) and lv[i] and becomes node t + i. ``refs[k]`` is the child ref
    standing for local vertex k: a leaf, or the root of a solved
    lower-rank component (that is how the top-down bands graft lighter
    dendrograms in). Returns the children (left, right) of nodes
    t, t + 1, ...
    """
    m = lu.size
    parent = list(range(refs.size))
    size = [1] * refs.size
    comp_root = refs.tolist()  # child ref of each union-find root
    left, right = [0] * m, [0] * m
    for i, (ru, rv) in enumerate(zip(lu.tolist(), lv.tolist())):
        while parent[ru] != ru:  # find, with path halving
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        left[i], right[i] = comp_root[ru], comp_root[rv]
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        comp_root[ru] = t + i
    return left, right


def _bands(t: int, lu: np.ndarray, lv: np.ndarray, refs: np.ndarray, out: list) -> None:
    """Cut a rank-ordered forest (``_bottom_up``'s arguments) into
    independent bands of at most ``_SEQ_CUTOFF`` edges, appended to
    ``out`` as ``_bottom_up`` arguments.

    The top-down recursion peels the heaviest ceil(m_j / 10) edges off
    the light chain m_0 = m, m_{j+1} = m_j - ceil(m_j / 10) until
    m_j <= _SEQ_CUTOFF: the bands are [0, m_J) and every level's heavy
    subproblem [m_{j+1}, m_j), contracted by the components of all
    lighter edges. A component's ref is its maximum-rank edge, the root
    of its dendrogram, so it is known without solving the component and
    no band waits for another. A band of more edges recurses the same
    way.
    """
    m = lu.size
    if m <= _SEQ_CUTOFF:
        out.append((t, lu, lv, refs))
        return
    cuts = [m]
    while cuts[-1] > _SEQ_CUTOFF:
        cuts.append(cuts[-1] - max(1, int(np.ceil(cuts[-1] * _HEAVY_FRAC))))
    cuts = [0] + cuts[::-1]
    comp = np.arange(refs.size)  # component label of each vertex
    ref = refs.copy()  # the ref of each component, at its label
    for a, b in zip(cuts, cuts[1:]):
        ends = np.concatenate([comp[lu[a:b]], comp[lv[a:b]]])
        labels, local = np.unique(ends, return_inverse=True)
        bu, bv = local[: b - a], local[b - a :]
        _bands(t + a, bu, bv, ref[labels], out)
        # Contract this band too, for the bands above it.
        merged = np.arange(labels.size)
        spanning_forest(merged, bu, bv)
        np.maximum.at(ref, labels[merged[bu]], np.arange(t + a, t + b))
        relabel = np.arange(refs.size)
        relabel[labels] = labels[merged]
        comp = relabel[comp]


def solve_subproblem_kernel(bands: list) -> list[tuple[list[int], list[int]]]:
    """The band kernel, on the driver and in Spark executors: the
    children (left, right) of every ``_bands`` band, solved bottom-up."""
    return [_bottom_up(*band) for band in bands]


def _solve_bands(
    lu: np.ndarray, lv: np.ndarray, refs: np.ndarray, spark: SparkSession | None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-down solve: cut the forest into bands, solve them (with
    ``spark``, through the Spark fan-out) and scatter their children by
    rank."""
    bands: list = []
    _bands(0, lu, lv, refs, bands)
    if spark is None:
        solved = solve_subproblem_kernel(bands)
    else:
        from ..engine.distribute import run_payloads_spark

        solved = run_payloads_spark(spark, bands)
    left = np.empty(lu.size, dtype=np.int64)
    right = np.empty(lu.size, dtype=np.int64)
    for (t, band_u, _, _), (band_left, band_right) in zip(bands, solved):
        left[t : t + band_u.size] = band_left
        right[t : t + band_u.size] = band_right
    return left, right


def _dendrogram(edges: np.ndarray, s: int, solve) -> Dendrogram:
    """Ordered dendrogram of a spanning tree's (n-1, 3) [u, v, w] edges
    from start vertex s. Node t is the edge of rank t in stable weight
    order, its left side the endpoint nearer s in hops (Theorem 4.2's
    ordering rule); ``solve(lu, lv, leaf_refs)`` returns the children
    as ``_bottom_up`` does for t = 0."""
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 3:
        raise ValueError(f"edges must be (m, 3) [u, v, w] rows, not of shape {edges.shape}")
    n = edges.shape[0] + 1
    if not np.isfinite(edges[:, 2]).all():
        raise ValueError("edge weights must be finite")
    ids = edges[:, :2]
    if not (np.array_equal(ids, np.floor(ids)) and ((ids >= 0) & (ids < n)).all()):
        raise ValueError(f"vertex ids must be integers in [0, {n - 1}]")
    if not 0 <= s < n:
        raise ValueError(f"start vertex {s} is outside [0, {n})")
    vd = vertex_distances(n, edges, s)
    order = np.argsort(edges[:, 2], kind="stable")
    u, v = ids[order].astype(np.int64).T
    flip = vd[u] > vd[v]
    left, right = solve(np.where(flip, v, u), np.where(flip, u, v), leaf_ref(np.arange(n)))
    return Dendrogram(
        n,
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        edges[order, 2].astype(np.float64),
        n - 2 if n > 1 else leaf_ref(0),
    )


def dendrogram_sequential(edges: np.ndarray, s: int = 0) -> Dendrogram:
    """Bottom-up ordered dendrogram over a spanning tree's (n-1, 3)
    [u, v, w] edges — the sequential baseline of Section 4."""
    return _dendrogram(edges, s, lambda lu, lv, refs: _bottom_up(0, lu, lv, refs))


def dendrogram_topdown(
    edges: np.ndarray, s: int = 0, spark: SparkSession | None = None
) -> Dendrogram:
    """The paper's top-down divide-and-conquer ordered dendrogram, with
    its recursion unrolled into independent bands (``_bands``).

    With ``spark``, the bands are solved in one Spark fan-out once their
    edges reach its break-even, and on the driver below it; either way
    the arrays equal ``dendrogram_sequential``'s.
    """
    return _dendrogram(edges, s, lambda lu, lv, refs: _solve_bands(lu, lv, refs, spark))


def single_linkage_labels(
    emst_edges: np.ndarray, n: int, eps: float
) -> np.ndarray:
    """Flat single-linkage clustering: components under EMST edges with
    weight <= eps (the horizontal dendrogram cut at eps), numbered 0, 1,
    ... in the order of their smallest member, whatever the row order."""
    cut = emst_edges[emst_edges[:, 2] <= eps, :2].astype(np.int64)
    comp = np.arange(n)
    spanning_forest(comp, cut[:, 0], cut[:, 1])
    return np.unique(comp, return_inverse=True)[1]
