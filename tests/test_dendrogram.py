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
    dendrogram_sequential,
    dendrogram_topdown,
    single_linkage_labels,
    vertex_distances,
)
from repro.core.emst import emst_memogfk
from repro.graph.prim import mst_bruteforce, reachability_plot
from tests.unionfind import UnionFind


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


def assert_same_dendrogram(got, want):
    """Equal node arrays, root and reachability plot."""
    assert got.root == want.root
    for name in ("left", "right", "weight"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    for x, y in zip(got.reachability(), want.reachability()):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", [10, 200, 1500, 3000])
def test_topdown_equals_sequential(n):
    """Node t is the edge of rank t in stable weight order under both
    constructions, so they return equal arrays on every tree shape, ties
    included: the weights take 4 values, and at 3000 points a band of
    the light chain is itself cut into bands."""
    for shape in SHAPES:
        edges = _random_tree(n, seed=n, shape=shape)
        edges[:, 2] = np.random.default_rng(n).integers(0, 4, n - 1)
        for s in {0, n // 3, n - 1}:
            assert_same_dendrogram(dendrogram_topdown(edges, s), dendrogram_sequential(edges, s))


def test_topdown_equals_sequential_on_hdbscan_mst():
    """Mutual-reachability weights tie wherever a core distance wins."""
    from repro.core.hdbscan import hdbscan_mst

    edges = hdbscan_mst(sd.ss_varden(3000, 3, seed=4), 10)[0]
    assert np.unique(edges[:, 2]).size < edges.shape[0]
    for s in (0, 1500):
        assert_same_dendrogram(dendrogram_topdown(edges, s), dendrogram_sequential(edges, s))


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


def _reference_bottom_up(t, lu, lv, refs):
    """The per-edge ``UnionFind`` form of ``_bottom_up``, kept as its
    reference: edge i, in the given order, becomes node t + i with the
    components of lu[i] and lv[i] as its left and right children."""
    uf = UnionFind(refs.size)
    comp_root = {i: int(refs[i]) for i in range(refs.size)}
    left, right = [], []
    for i, (u, v) in enumerate(zip(lu.tolist(), lv.tolist())):
        left.append(comp_root[uf.find(u)])
        right.append(comp_root[uf.find(v)])
        uf.union(u, v)
        comp_root[uf.find(u)] = t + i
    return left, right


@pytest.mark.parametrize("seed", range(40))
def test_bottom_up_matches_reference(seed):
    """Random forests with tied weights and tied vertex distances, put in
    rank order and oriented as ``_dendrogram`` does, under refs mixing
    leaves and lower-rank nodes and a random first rank t."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 70))
    parent = np.array([int(rng.integers(0, i)) for i in range(1, k)], dtype=np.int64)
    label = rng.permutation(k)
    kept = rng.random(k - 1) < 0.8
    us, vs = label[parent[kept]], label[1:][kept]
    order = np.argsort(rng.integers(0, 4, us.size), kind="stable")  # ties
    us, vs = us[order], vs[order]
    vd = rng.integers(0, 3, k)
    flip = vd[us] > vd[vs]
    lu, lv = np.where(flip, vs, us), np.where(flip, us, vs)
    t = int(rng.integers(0, 1000))
    refs = rng.permutation(np.arange(-k, t))[:k]
    left, right = _bottom_up(t, lu, lv, refs)
    assert (left, right) == _reference_bottom_up(t, lu, lv, refs)


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


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("builder", [dendrogram_sequential, dendrogram_topdown])
@pytest.mark.parametrize(
    "edges, match",
    [
        (np.array([[0.0, 1.0], [1.0, 2.0]]), r"\(m, 3\)"),
        (np.zeros(3), r"\(m, 3\)"),
        (np.zeros((2, 4)), r"\(m, 3\)"),
        (np.array([[0.0, 1.0, _NAN], [1.0, 2.0, 1.0]]), "finite"),
        (np.array([[0.0, 1.0, 1.0], [1.0, 2.0, -_INF]]), "finite"),
        (np.array([[0.0, 5.0, 1.0], [1.0, 2.0, 1.0]]), "vertex ids"),
        (np.array([[-1.0, 1.0, 1.0], [1.0, 2.0, 1.0]]), "vertex ids"),
        (np.array([[0.0, 1.5, 1.0], [1.0, 2.0, 1.0]]), "vertex ids"),
        (np.array([[0.0, _NAN, 1.0], [1.0, 2.0, 1.0]]), "vertex ids"),
    ],
    ids=["2-columns", "1-d", "4-columns", "nan-weight", "inf-weight",
         "id-above-m", "negative-id", "fractional-id", "nan-id"],
)
def test_bad_edges_raise(builder, edges, match):
    with pytest.raises(ValueError, match=match):
        builder(edges)


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
        assert dend.n == 500
        order, bars = dend.reachability()
        assert is_valid_prim_order(500, edges, order, bars)
        # The multiset of bar heights is tie-break invariant.
        assert np.allclose(np.sort(bars[1:]), np.sort(bars_ref[1:]))
