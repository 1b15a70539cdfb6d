"""Exact incremental Delaunay substrate: structure, Gabriel edges in
exact arithmetic, exact predicate signs, and EMST-Delaunay on cocircular
input (Appendix A.1 depends on EMST ⊆ Gabriel ⊆ Delaunay edges)."""
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.core.emst import emst_delaunay
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
    from tests.unionfind import UnionFind

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


def _regular_polygon(k: int) -> np.ndarray:
    t = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(t), np.sin(t)])


_COCIRCULAR = {
    **{f"{k}-gon": _regular_polygon(k) for k in (5, 6, 8, 12, 40, 100)},
    # Many cocircular quadruples; counts alone passed a wrong triangulation.
    "rounded-lattice": np.round(np.random.default_rng(2705832908).random((120, 2)) * 2, 1),
}


@pytest.mark.parametrize("name", list(_COCIRCULAR))
def test_delaunay_on_cocircular_points_is_exact_or_rejects(name):
    """Cocircular points tie the in-circle test; with exact signs a tie
    keeps its edge, and EMST-Delaunay returns Prim's weight."""
    pts = _COCIRCULAR[name]
    weight = mst_bruteforce(pts)[:, 2].sum()
    edges, _ = emst_delaunay(pts)
    assert edges.shape == (pts.shape[0] - 1, 3)
    assert np.isclose(edges[:, 2].sum(), weight, rtol=1e-12, atol=0)


def _gabriel_edges(pts):
    """Pairs (u, v) with no other point in their closed diametral disk,
    decided in exact fractions: w is outside iff (w - u).(w - v) > 0."""
    P = [(Fraction(x), Fraction(y)) for x, y in pts.tolist()]
    return {
        (u, v)
        for u, v in combinations(range(len(P)), 2)
        if all(
            (P[w][0] - P[u][0]) * (P[w][0] - P[v][0]) + (P[w][1] - P[u][1]) * (P[w][1] - P[v][1]) > 0
            for w in range(len(P))
            if w != u and w != v
        )
    }


_GABRIEL = {
    "random": _pts(40, seed=11),
    "12-gon": _regular_polygon(12),
    "lattice-5x5": np.stack(np.meshgrid(np.arange(5.0), np.arange(5.0)), axis=-1).reshape(-1, 2),
    "rounded-lattice": np.round(np.random.default_rng(3).random((40, 2)) * 2, 1),
    "collinear": np.column_stack([np.arange(20.0), 3.0 * np.arange(20.0) + 1e6]),
    # Gaps below 2**-225: triangulated in fractions throughout.
    "extent-1e-75": _pts(30, seed=12) * 1e-76,
}


@pytest.mark.parametrize("name", list(_GABRIEL))
def test_every_gabriel_edge_is_a_delaunay_edge(name):
    """Every Gabriel edge, so every EMST edge, is in every Delaunay
    triangulation of the points."""
    pts = np.unique(_GABRIEL[name], axis=0)
    edges = {tuple(e) for e in delaunay_edges(pts).tolist()}
    assert _gabriel_edges(pts) <= edges


def _exact_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _exact_incircle(a, b, c, d):
    """The lifted 3x3 determinant, rows p - d for p = a, b, c."""
    (r0, r1, r2) = [(p[0] - d[0], p[1] - d[1], (p[0] - d[0]) ** 2 + (p[1] - d[1]) ** 2) for p in (a, b, c)]
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def test_signs_match_exact_fractions_on_near_ties():
    """Points of a rounded circle and of a lattice one ulp off: the
    signs of both predicates equal their exact rational values."""
    from repro.geometry.delaunay import _incircle, _orient

    t = np.random.default_rng(0).random(60) * 2 * np.pi
    ring = np.column_stack([np.cos(t), np.sin(t)]) * 1e3 + 1e6
    grid = np.random.default_rng(1).integers(0, 3, (60, 2)) + 1e8
    grid[::2, 0] = np.nextafter(grid[::2, 0], np.inf)
    for P in (ring, grid):
        xy = P.tolist()
        exact = [(Fraction(x), Fraction(y)) for x, y in xy]
        idx = np.random.default_rng(2).integers(0, 60, (400, 4)).tolist()
        for fn, ref, k in ((_orient, _exact_orient, 3), (_incircle, _exact_incircle, 4)):
            got = [fn(*[xy[v] for v in row[:k]]) for row in idx]
            want = [ref(*[exact[v] for v in row[:k]]) for row in idx]
            assert got == [(w > 0) - (w < 0) for w in want]
