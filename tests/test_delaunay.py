"""Bowyer–Watson Delaunay substrate: structural and empty-circumcircle
checks (Appendix A.1 depends on EMST ⊆ Delaunay edges)."""
import numpy as np
import pytest

from repro.geometry.delaunay import delaunay_edges
from repro.graph.prim import mst_bruteforce


def _pts(n, seed=0):
    return np.random.default_rng(seed).random((n, 2)) * 10


@pytest.mark.parametrize("n", [3, 4, 10, 50, 400])
def test_edge_count_planar_bound(n):
    edges = delaunay_edges(_pts(n, seed=n))
    assert edges.shape[0] <= 3 * n - 6 or n < 3
    assert (edges[:, 0] < edges[:, 1]).all()


@pytest.mark.parametrize("n", [20, 100, 500])
def test_triangulation_connected_and_spans(n):
    from repro.graph.unionfind import UnionFind

    pts = _pts(n, seed=n + 1)
    edges = delaunay_edges(pts)
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(int(u), int(v))
    assert len({uf.find(v) for v in range(n)}) == 1


@pytest.mark.parametrize("n", [30, 120, 600])
def test_contains_emst_edges(n):
    """EMST ⊆ Delaunay (Shamos–Hoey) — the property Appendix A.1 uses."""
    pts = _pts(n, seed=n + 2)
    d_edges = {tuple(e) for e in delaunay_edges(pts)}
    for u, v, _ in mst_bruteforce(pts):
        key = (min(int(u), int(v)), max(int(u), int(v)))
        assert key in d_edges


def test_nearest_neighbor_edges_present():
    """Every point's nearest neighbor must be a Delaunay neighbor."""
    pts = _pts(200, seed=9)
    d_edges = {tuple(e) for e in delaunay_edges(pts)}
    dmat = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    np.fill_diagonal(dmat, np.inf)
    nn = dmat.argmin(axis=1)
    for i, j in enumerate(nn):
        assert (min(i, int(j)), max(i, int(j))) in d_edges


def test_tiny_inputs():
    assert delaunay_edges(_pts(1)).shape == (0, 2)
    assert delaunay_edges(_pts(2)).shape == (1, 2)
    e = delaunay_edges(_pts(3))
    assert e.shape == (3, 2)


def test_deterministic():
    pts = _pts(100, seed=4)
    assert np.array_equal(delaunay_edges(pts), delaunay_edges(pts))
