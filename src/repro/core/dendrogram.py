"""Ordered dendrogram and reachability plot (Section 4).

Given a weighted spanning tree (the EMST for single-linkage clustering,
or the HDBSCAN* mutual-reachability MST), build the *ordered
dendrogram* of a starting vertex s: the binary tree whose internal
nodes are the tree edges (split heights = edge weights) and whose
in-order leaf traversal is exactly Prim's visit order from s — i.e. the
reachability plot (Theorem 4.2).

Two constructions, which must agree (tests enforce it):

* ``dendrogram_sequential`` — the classic bottom-up agglomerative
  algorithm (sort edges, merge with union-find), ordering each internal
  node's children by the vertex distances of the edge endpoints.
* ``dendrogram_topdown`` — the paper's novel divide-and-conquer: take
  the heaviest ~n/10 edges ("heavy"), solve each light-edge component
  and the contracted heavy problem recursively, and graft light roots
  into the heavy dendrogram's leaves. With a SparkSession, the
  top-level light subproblems are solved in one Spark fan-out once
  their edges reach its break-even (the paper's implementation note:
  parallelism across subproblems).

Node encoding: the dendrogram over n leaves has n-1 internal nodes in
flat arrays ``left``/``right``/``weight``. A child reference r is a
leaf vertex v when r < 0 (encoded -(v+1)) and an internal node index
otherwise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from ..graph.kruskal import spanning_forest

# Subproblems at or below this edge count are solved bottom-up.
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
    'vertex distances', computed once and reused at every recursion
    level (their Euler-tour list-ranking step)."""
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


class _Builder:
    """Accumulates the internal nodes with global ids [base, base + size)
    across recursion."""

    def __init__(self, size: int, base: int = 0):
        self.left = np.empty(size, dtype=np.int64)
        self.right = np.empty(size, dtype=np.int64)
        self.weight = np.empty(size)
        self.base = base
        self.next_id = base


def _bottom_up(
    edges: np.ndarray, refs: np.ndarray, builder: _Builder
) -> int:
    """Classic agglomerative construction on one subproblem.

    ``edges`` is (m, 5): [u, v, w, vdist_u, vdist_v] with u, v local
    vertex ids in [0, m]; ``refs[i]`` is the global child ref standing
    for local vertex i (a true leaf, or the root of an already-solved
    lighter subproblem — that is how the top-down recursion grafts
    light dendrograms into heavy leaves). Returns the root ref.
    """
    m = edges.shape[0]
    e = edges[np.argsort(edges[:, 2], kind="stable")]
    us = e[:, 0].astype(np.int64).tolist()
    vs = e[:, 1].astype(np.int64).tolist()
    # Ordering rule (Theorem 4.2): the side holding the endpoint with
    # the smaller vertex distance goes left.
    u_left = (e[:, 3] <= e[:, 4]).tolist()
    parent = list(range(m + 1))
    size = [1] * (m + 1)
    comp_root = refs.tolist()  # child ref of each union-find root
    left, right = [0] * m, [0] * m
    node = builder.next_id
    for t in range(m):
        ru, rv = us[t], vs[t]
        while parent[ru] != ru:  # find, with path halving
            parent[ru] = ru = parent[parent[ru]]
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if u_left[t]:
            left[t], right[t] = comp_root[ru], comp_root[rv]
        else:
            left[t], right[t] = comp_root[rv], comp_root[ru]
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        comp_root[ru] = node + t
    ids = slice(node - builder.base, node - builder.base + m)
    builder.left[ids], builder.right[ids], builder.weight[ids] = left, right, e[:, 2]
    builder.next_id += m
    return node + m - 1 if m else int(refs[0])


def _split_subproblems(
    edges: np.ndarray,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """One level of the top-down recursion.

    Splits ``edges`` (local ids 0..k-1) into the heavy subproblem and
    the light components. Returns (heavy_edges_localized, lights,
    comp_of_vertex) where ``lights`` is a list of (light_edges_localized,
    member_local_vertices); heavy edge endpoints are component ids and
    the per-edge endpoint vdists are preserved for the ordering rule.
    """
    m = edges.shape[0]
    k = m + 1
    h = max(1, int(np.ceil(m * _HEAVY_FRAC)))
    # h heaviest edges are heavy (paper: n/10). Ties broken stably.
    order = np.argsort(-edges[:, 2], kind="stable")
    heavy_idx = order[:h]
    light_idx = order[h:]
    comp = np.arange(k)
    light_uv = edges[light_idx, :2].astype(np.int64)
    spanning_forest(comp, light_uv[:, 0], light_uv[:, 1])
    comp_of_vertex = np.unique(comp, return_inverse=True)[1]

    # Light components -> localized subproblems (group light edges by
    # component with one sort; localize endpoints with searchsorted).
    lights: list[tuple[np.ndarray, np.ndarray]] = []
    if light_idx.size:
        le = edges[light_idx]
        comp_of_edge = comp_of_vertex[le[:, 0].astype(np.int64)]
        grp = np.argsort(comp_of_edge, kind="stable")
        le = le[grp]
        comp_sorted = comp_of_edge[grp]
        cuts = np.flatnonzero(np.diff(comp_sorted)) + 1
        for sub in np.split(le, cuts):
            members = np.unique(
                np.concatenate([sub[:, 0], sub[:, 1]]).astype(np.int64)
            )
            sub_local = sub.copy()
            sub_local[:, 0] = np.searchsorted(members, sub[:, 0].astype(np.int64))
            sub_local[:, 1] = np.searchsorted(members, sub[:, 1].astype(np.int64))
            lights.append((sub_local, members))

    he = edges[heavy_idx].copy()
    he[:, 0] = comp_of_vertex[he[:, 0].astype(np.int64)]
    he[:, 1] = comp_of_vertex[he[:, 1].astype(np.int64)]
    return he, lights, comp_of_vertex


def _solve(
    edges: np.ndarray,
    refs: np.ndarray,
    builder: _Builder,
    spark: SparkSession | None = None,
) -> int:
    """Recursive top-down solve; returns the root ref. With ``spark``,
    this level's light subproblems go through the Spark fan-out."""
    m = edges.shape[0]
    if m == 0:
        return int(refs[0])
    if m <= _SEQ_CUTOFF:
        return _bottom_up(edges, refs, builder)
    he, lights, comp_of_vertex = _split_subproblems(edges)
    n_comp = int(comp_of_vertex.max()) + 1
    comp_refs = np.empty(n_comp, dtype=np.int64)
    # Singleton components keep their original refs (vectorized).
    counts = np.bincount(comp_of_vertex, minlength=n_comp)
    singles = np.flatnonzero(counts[comp_of_vertex] == 1)
    comp_refs[comp_of_vertex[singles]] = refs[singles]
    # Light subproblems first (their roots become heavy leaves).
    if spark is None:
        roots = [_solve(sub, refs[members], builder) for sub, members in lights]
    else:
        roots = _solve_remote(spark, lights, refs, builder)
    for (_, members), root in zip(lights, roots):
        comp_refs[comp_of_vertex[members[0]]] = root
    return _solve(he, comp_refs, builder)


def _solve_remote(
    spark: SparkSession,
    lights: list[tuple[np.ndarray, np.ndarray]],
    refs: np.ndarray,
    builder: _Builder,
) -> list[int]:
    """Solve the light subproblems through the Spark fan-out; returns
    their roots.

    A subproblem with m edges creates exactly m internal nodes, so each
    one is handed the id range the driver-side loop would give it. The
    solved nodes then carry their final ids and are copied in as
    slices, bit-identical to solving on the driver.
    """
    from ..engine.distribute import run_payloads_spark

    sizes = [sub.shape[0] for sub, _ in lights]
    bases = builder.next_id + np.cumsum([0] + sizes)
    subproblems = [
        (sub, refs[members], int(base)) for (sub, members), base in zip(lights, bases)
    ]
    roots = []
    for k, (left, right, weight, root) in enumerate(run_payloads_spark(spark, subproblems)):
        ids = slice(bases[k] - builder.base, bases[k + 1] - builder.base)
        builder.left[ids], builder.right[ids], builder.weight[ids] = left, right, weight
        roots.append(root)
    builder.next_id = int(bases[-1])
    return roots


def solve_subproblem_kernel(edges: np.ndarray, refs: np.ndarray, base: int):
    """Executor-side kernel for one Spark-dispatched light subproblem:
    local vertex i stands for the global ref ``refs[i]`` and the m new
    internal nodes take the global ids [base, base + m). Returns
    (left, right, weight, root)."""
    builder = _Builder(edges.shape[0], base)
    root = _solve(edges, refs, builder)
    return builder.left, builder.right, builder.weight, root


def _dendrogram(edges: np.ndarray, s: int, solve) -> Dendrogram:
    """Ordered dendrogram of a spanning tree's (n-1, 3) [u, v, w] edges
    from start vertex s, built by ``solve(edges5, leaf_refs, builder)``
    over the (n-1, 5) [u, v, w, vdist_u, vdist_v] rows."""
    n = edges.shape[0] + 1
    if not 0 <= s < n:
        raise ValueError(f"start vertex {s} is outside [0, {n})")
    vd = vertex_distances(n, edges, s)
    e5 = np.column_stack([edges[:, :3], vd[edges[:, :2].astype(np.int64)]])
    builder = _Builder(n - 1)
    root = solve(e5, leaf_ref(np.arange(n)), builder)
    return Dendrogram(n, builder.left, builder.right, builder.weight, root)


def dendrogram_sequential(edges: np.ndarray, s: int = 0) -> Dendrogram:
    """Bottom-up ordered dendrogram over a spanning tree's (n-1, 3)
    [u, v, w] edges — the sequential baseline of Section 4."""
    return _dendrogram(edges, s, _bottom_up)


def dendrogram_topdown(
    edges: np.ndarray, s: int = 0, spark: SparkSession | None = None
) -> Dendrogram:
    """The paper's top-down divide-and-conquer ordered dendrogram.

    With ``spark``, the top level's light-edge subproblems are solved in
    one Spark fan-out (each by the same recursion, in an executor) and
    grafted into the heavy-edge dendrogram computed on the driver; below
    the fan-out's break-even they are solved on the driver.
    """
    return _dendrogram(
        edges, s, lambda e5, refs, builder: _solve(e5, refs, builder, spark)
    )


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
