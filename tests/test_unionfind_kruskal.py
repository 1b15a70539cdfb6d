"""Union-find and Kruskal substrates."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.kruskal import kruskal_batch, mst, spanning_forest
from repro.graph.prim import mst_bruteforce
from tests.unionfind import UnionFind


def _n_components(uf, n):
    return len({uf.find(v) for v in range(n)})


def test_unionfind_basic():
    uf = UnionFind(5)
    assert _n_components(uf, 5) == 5
    assert uf.union(0, 1)
    assert not uf.union(1, 0)
    assert uf.find(0) == uf.find(1)
    assert uf.find(0) != uf.find(2)
    assert _n_components(uf, 5) == 4


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60
    )
)
def test_unionfind_matches_naive(ops):
    uf = UnionFind(30)
    naive = list(range(30))

    def naive_root(x):
        while naive[x] != x:
            x = naive[x]
        return x

    for a, b in ops:
        ra, rb = naive_root(a), naive_root(b)
        if ra != rb:
            naive[ra] = rb
        uf.union(a, b)
    for a in range(30):
        for b in range(30):
            assert (uf.find(a) == uf.find(b)) == (naive_root(a) == naive_root(b))


@pytest.mark.parametrize("n", [2, 5, 30, 120])
def test_kruskal_matches_prim_on_complete_graph(n):
    pts = np.random.default_rng(n).random((n, 3))
    iu, ju = np.triu_indices(n, k=1)
    ws = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    got = mst(n, iu, ju, ws)
    ref = mst_bruteforce(pts)
    assert got.shape == ref.shape
    assert np.allclose(np.sort(got[:, 2]), np.sort(ref[:, 2]))


def test_kruskal_batched_equals_oneshot():
    """Feeding weight-ordered batches with a shared component array (the
    GFK calling convention) must equal one-shot Kruskal, row for row."""
    n = 80
    pts = np.random.default_rng(1).random((n, 2))
    iu, ju = np.triu_indices(n, k=1)
    ws = np.linalg.norm(pts[iu] - pts[ju], axis=1)
    order = np.argsort(ws)
    iu, ju, ws = iu[order], ju[order], ws[order]
    comp = np.arange(n)
    out = []
    for lo in range(0, ws.size, 500):
        kruskal_batch(iu[lo : lo + 500], ju[lo : lo + 500], ws[lo : lo + 500], comp, out)
    got = np.concatenate(out)
    ref = mst(n, iu, ju, ws)
    assert np.array_equal(got, ref)


def test_kruskal_disconnected_graph():
    got = mst(4, np.array([0, 2]), np.array([1, 3]), np.array([1.0, 2.0]))
    assert got.shape[0] == 2  # spanning forest, not tree


def _kruskal_reference(n, batches):
    """Stable Kruskal with a ``UnionFind``, one edge at a time: the
    accepted [u, v, w] rows and every vertex's component root."""
    uf = UnionFind(n)
    rows = []
    for us, vs, ws in batches:
        for i in np.argsort(ws, kind="stable"):
            if uf.union(int(us[i]), int(vs[i])):
                rows.append((us[i], vs[i], ws[i]))
    roots = np.array([uf.find(v) for v in range(n)])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3), roots


@st.composite
def _batched_graphs(draw):
    """A graph with integer weights (many ties), self-loops and parallel
    edges, cut into weight-ordered batches (some of them empty)."""
    n = draw(st.integers(1, 25))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 6)), max_size=80))
    e = np.array(edges, dtype=np.int64).reshape(-1, 3)
    # Batches must be weight-ordered: sort by weight (ties in draw
    # order), cut, then shuffle inside some batches.
    e = e[np.argsort(e[:, 2], kind="stable")]
    cuts = sorted(draw(st.lists(st.integers(0, len(e)), max_size=5)))
    batches = []
    for b in np.split(e, cuts):
        if len(b) and draw(st.booleans()):
            b = b[draw(st.permutations(range(len(b))))]
        batches.append((b[:, 0], b[:, 1], b[:, 2]))
    return n, batches


@settings(max_examples=300, deadline=None)
@given(_batched_graphs())
def test_kruskal_batch_matches_unionfind_kruskal(graph):
    """Batched ``kruskal_batch`` on one component array accepts the
    same rows in the same order as stable Kruskal with a union-find,
    and leaves every vertex labelled by the smallest vertex of its
    component."""
    n, batches = graph
    ref_rows, roots = _kruskal_reference(n, batches)
    comp = np.arange(n)
    out = []
    accepted = [kruskal_batch(us, vs, ws, comp, out) for us, vs, ws in batches]
    got = np.concatenate(out)
    assert got.dtype == np.float64
    assert np.array_equal(got, ref_rows)
    assert accepted == [rows.shape[0] for rows in out]
    smallest = np.array([np.flatnonzero(roots == roots[v]).min() for v in range(n)])
    assert np.array_equal(comp, smallest)


@settings(max_examples=300, deadline=None)
@given(_batched_graphs())
def test_spanning_forest_accepts_what_stable_kruskal_accepts(graph):
    """``spanning_forest`` returns, in increasing order, the positions
    that a union-find scan in position order accepts."""
    n, batches = graph
    comp = np.arange(n)
    uf = UnionFind(n)
    for us, vs, _ in batches:
        ref = [i for i in range(us.size) if uf.union(int(us[i]), int(vs[i]))]
        assert spanning_forest(comp, us, vs).tolist() == ref
        roots = np.array([uf.find(v) for v in range(n)])
        assert all(comp[v] == np.flatnonzero(roots == roots[v]).min() for v in range(n))
