"""Ordered dendrogram (Section 4): the in-order leaf traversal must be
a valid Prim execution from s, and the bar heights must match Prim's
reachability values (Theorem 4.2) — for the bottom-up baseline, the
top-down divide-and-conquer, and arbitrary start vertices/tree shapes."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.dendrogram import (
    Dendrogram,
    _bottom_up,
    _Builder,
    dendrogram_sequential,
    dendrogram_topdown,
    single_linkage_labels,
    vertex_distances,
)
from repro.core.emst import emst_memogfk
from repro.graph.prim import mst_bruteforce, reachability_plot
from repro.graph.unionfind import UnionFind


def _random_tree(n, seed, shape="mst"):
    rng = np.random.default_rng(seed)
    if shape == "mst":
        pts = rng.random((n, 3)) * 10
        return mst_bruteforce(pts)
    if shape == "path":
        w = rng.permutation(n - 1) + 1.0
        return np.column_stack([np.arange(n - 1), np.arange(1, n), w])
    if shape == "star":
        w = rng.permutation(n - 1) + 1.0
        return np.column_stack([np.zeros(n - 1), np.arange(1, n), w])
    if shape == "caterpillar":
        us, vs = [], []
        for i in range(1, n):
            us.append(i // 2)
            vs.append(i)
        w = rng.permutation(n - 1) + 1.0
        return np.column_stack([us, vs, w]).astype(np.float64)
    raise ValueError(shape)


SHAPES = ["mst", "path", "star", "caterpillar"]
SIZES = [2, 3, 8, 50, 300]


@pytest.mark.parametrize("builder", [dendrogram_sequential, dendrogram_topdown])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", SIZES)
def test_reachability_matches_prim(builder, shape, n):
    edges = _random_tree(n, seed=n + len(shape))
    for s in {0, n // 2, n - 1}:
        order_ref, bars_ref = reachability_plot(n, edges, s)
        dend = builder(edges, s)
        order, bars = dend.reachability()
        assert np.array_equal(order, order_ref)
        assert bars[0] == np.inf and order[0] == s
        assert np.allclose(bars[1:], bars_ref[1:])


@pytest.mark.parametrize("n", [10, 200, 1500])
def test_topdown_equals_sequential(n):
    edges = _random_tree(n, seed=n, shape="mst")
    d1 = dendrogram_sequential(edges, 0)
    d2 = dendrogram_topdown(edges, 0)
    o1, b1 = d1.reachability()
    o2, b2 = d2.reachability()
    assert np.array_equal(o1, o2)
    assert np.allclose(b1[1:], b2[1:])


@pytest.mark.parametrize("shape", SHAPES)
def test_dendrogram_heights_monotone(shape):
    """Parent split height >= child split height (it is a dendrogram)."""
    edges = _random_tree(120, seed=3, shape=shape)
    dend = dendrogram_topdown(edges, 0)
    for i in range(dend.n - 1):
        for child in (int(dend.left[i]), int(dend.right[i])):
            if child >= 0:
                assert dend.weight[i] >= dend.weight[child] - 1e-12


def test_internal_weights_are_edge_weights():
    edges = _random_tree(80, seed=5)
    dend = dendrogram_topdown(edges, 0)
    assert np.allclose(np.sort(dend.weight), np.sort(edges[:, 2]))


def _reference_bottom_up(edges, refs, builder):
    """The per-edge ``UnionFind`` form of ``_bottom_up``, kept as its
    reference: one internal node per edge in stable weight order, the
    endpoint with the smaller vertex distance on the left."""
    m = edges.shape[0]
    uf = UnionFind(m + 1)
    comp_root = {i: int(refs[i]) for i in range(m + 1)}
    root = int(refs[0])
    for idx in np.argsort(edges[:, 2], kind="stable"):
        u, v, w, vdu, vdv = edges[idx]
        u, v = int(u), int(v)
        cu, cv = comp_root[uf.find(u)], comp_root[uf.find(v)]
        root = builder.next_id
        k = root - builder.base
        builder.left[k], builder.right[k] = (cu, cv) if vdu <= vdv else (cv, cu)
        builder.weight[k] = float(w)
        builder.next_id += 1
        uf.union(u, v)
        comp_root[uf.find(u)] = root
    return root


@pytest.mark.parametrize("seed", range(40))
def test_bottom_up_matches_reference(seed):
    """Random local trees with tied weights and tied vertex distances,
    refs mixing leaves and solved roots, and a builder whose ids start
    at a nonzero base with some ids already taken (a Spark subproblem
    inside a recursion)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 60))
    parent = [int(rng.integers(0, i)) for i in range(1, m + 1)]
    label = rng.permutation(m + 1)
    edges = np.column_stack(
        [
            label[parent] if m else np.empty(0),
            label[1:],
            rng.integers(0, 4, m).astype(np.float64),  # ties
            rng.integers(0, 3, m),
            rng.integers(0, 3, m),
        ]
    ).astype(np.float64).reshape(m, 5)
    refs = rng.permutation(np.arange(-(m + 1), m + 1))[: m + 1]
    base, taken = int(rng.integers(1, 1000)), int(rng.integers(0, 5))
    built = []
    for fn in (_bottom_up, _reference_bottom_up):
        b = _Builder(m + taken, base)
        b.next_id += taken
        b.left[:taken] = b.right[:taken] = b.weight[:taken] = -7
        root = fn(edges, refs, b)
        built.append((root, b.next_id, b.left, b.right, b.weight))
    (root, nxt, *arrays), (root_ref, nxt_ref, *arrays_ref) = built
    assert (root, nxt) == (root_ref, nxt_ref)
    for x, y in zip(arrays, arrays_ref):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("n", [2, 5, 64, 400])
def test_vertex_distances_bfs(n):
    edges = _random_tree(n, seed=n, shape="caterpillar")
    vd = vertex_distances(n, edges, 0)
    assert vd[0] == 0
    # Each tree edge connects vertices whose distances differ by one.
    for u, v, _ in edges:
        assert abs(vd[int(u)] - vd[int(v)]) == 1


def test_vertex_distances_rejects_forest():
    edges = np.array([[0.0, 1.0, 1.0]])  # n=3 but only one edge
    with pytest.raises(ValueError):
        vertex_distances(3, edges, 0)


def test_bars_equal_min_distance_to_prefix():
    """Definition check (Section 2.1): bar(p_i) = min mutual distance
    to previously-visited points, restricted to tree edges here."""
    n = 60
    edges = _random_tree(n, seed=7)
    dend = dendrogram_topdown(edges, 0)
    order, bars = dend.reachability()
    adj = {}
    for u, v, w in edges:
        adj.setdefault(int(u), {})[int(v)] = w
        adj.setdefault(int(v), {})[int(u)] = w
    seen = set()
    for i, p in enumerate(order):
        p = int(p)
        if i > 0:
            cand = [w for q, w in adj[p].items() if q in seen]
            assert np.isclose(bars[i], min(cand))
        seen.add(p)


@pytest.mark.parametrize("eps_q", [0.2, 0.6, 0.9])
def test_single_linkage_cut_matches_components(eps_q):
    pts = sd.ss_varden(400, 2, seed=2)
    edges, _ = emst_memogfk(pts)
    eps = float(np.quantile(edges[:, 2], eps_q))
    labels = single_linkage_labels(edges, 400, eps)
    # Oracle: union-find over *all* point pairs within eps.
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    uf = UnionFind(400)
    for i, j in zip(*np.nonzero(d <= eps)):
        if i < j:
            uf.union(int(i), int(j))
    ref = np.array([uf.find(v) for v in range(400)])
    import pandas as pd

    m = pd.DataFrame({"a": labels, "b": ref}).drop_duplicates()
    assert m["a"].is_unique and m["b"].is_unique


@pytest.mark.parametrize("eps_q", [0.2, 0.6, 0.9])
def test_single_linkage_labels_ignore_row_order(eps_q):
    """Clusters are numbered in the order of their smallest member, so
    permuting the MST rows changes no label."""
    pts = sd.ss_varden(400, 2, seed=2)
    edges, _ = emst_memogfk(pts)
    eps = float(np.quantile(edges[:, 2], eps_q))
    labels = single_linkage_labels(edges, 400, eps)
    perm = np.random.default_rng(0).permutation(edges.shape[0])
    assert np.array_equal(single_linkage_labels(edges[perm], 400, eps), labels)
    # Scanning vertices in order, each new cluster takes the next id.
    first = np.sort(np.unique(labels, return_index=True)[1])
    assert np.array_equal(labels[first], np.arange(first.size))


def test_single_leaf_tree():
    d = dendrogram_topdown(np.empty((0, 3)), 0)
    assert isinstance(d, Dendrogram)
    order, bars = d.reachability()
    assert order.tolist() == [0] and bars[0] == np.inf


@pytest.mark.parametrize("builder", [dendrogram_sequential, dendrogram_topdown])
@pytest.mark.parametrize("n,s", [(50, -1), (50, 50), (1, 1)])
def test_start_vertex_out_of_range_raises(builder, n, s):
    edges = _random_tree(n, seed=1, shape="path")
    with pytest.raises(ValueError, match="start vertex"):
        builder(edges, s)


def test_hdbscan_dendrogram_end_to_end():
    """Full paper pipeline: HDBSCAN* MST -> ordered dendrogram ->
    reachability plot. Mutual-reachability MSTs have tied weights
    (shared core distances), under which Prim's order is not unique —
    so we check the in-order traversal is a *valid* Prim execution
    with the correct bar heights (Theorem 4.2's guarantee)."""
    from repro.core.hdbscan import hdbscan_mst
    from repro.graph.prim import is_valid_prim_order

    pts = sd.ss_varden(500, 2, seed=11)
    edges, cd, _ = hdbscan_mst(pts, 10)
    _, bars_ref = reachability_plot(500, edges, 0)
    for dend in (dendrogram_topdown(edges, 0), dendrogram_sequential(edges, 0)):
        order, bars = dend.reachability()
        assert is_valid_prim_order(500, edges, order, bars)
        # The multiset of bar heights is tie-break invariant.
        assert np.allclose(np.sort(bars[1:]), np.sort(bars_ref[1:]))
