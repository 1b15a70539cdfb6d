"""Bowyer–Watson Delaunay substrate: structural and empty-circumcircle
checks (Appendix A.1 depends on EMST ⊆ Delaunay edges)."""
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
    """Bowyer–Watson's floating-point in-circle tests tie on cocircular
    points. EMST-Delaunay must return Prim's weight or raise."""
    pts = _COCIRCULAR[name]
    weight = mst_bruteforce(pts)[:, 2].sum()
    try:
        edges, _ = emst_delaunay(pts)
    except ValueError:
        return
    assert edges.shape == (pts.shape[0] - 1, 3)
    assert np.isclose(edges[:, 2].sum(), weight, rtol=1e-9, atol=0)


def _final_triangles(pts):
    """(P, n, tris) that ``delaunay_edges(pts)`` hands its check."""
    from repro.geometry import delaunay

    seen = []
    check = delaunay._check_delaunay
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delaunay, "_check_delaunay", lambda *args: seen.append(args) or check(*args))
        delaunay_edges(pts)
    return seen[0]


def test_check_rejects_a_triangulation_that_is_not_delaunay():
    """Flipping one inner edge of a convex quadrilateral keeps a tiling
    of the super-triangle but breaks the empty-circle property."""
    from repro.geometry.delaunay import _check_delaunay, _orient

    P, n, tris = _final_triangles(_pts(40, seed=5))
    for t, u in zip(*np.triu_indices(len(tris), 1)):
        shared = np.intersect1d(tris[t], tris[u])
        if shared.size != 2 or (tris[[t, u]] >= n).any():
            continue
        (c,), (d,) = np.setdiff1d(tris[t], shared), np.setdiff1d(tris[u], shared)
        a, b = shared
        if _orient(P[c], P[d], P[a]) * _orient(P[c], P[d], P[b]) < 0:  # convex
            break
    flipped = tris.copy()
    flipped[t], flipped[u] = (c, d, a), (c, d, b)
    _check_delaunay(P, n, tris)
    with pytest.raises(ValueError, match="span"):
        _check_delaunay(P, n, flipped)


def test_check_rejects_folded_triangles():
    """Swapping two points' labels keeps every edge count but folds
    triangles over each other."""
    from repro.geometry.delaunay import _check_delaunay

    P, n, tris = _final_triangles(_pts(40, seed=6))
    swapped = np.where(tris == 3, 17, np.where(tris == 17, 3, tris))
    with pytest.raises(ValueError, match="span"):
        _check_delaunay(P, n, swapped)


def test_check_rejects_a_point_in_no_triangle():
    """One more point, in no triangle: the rest still tile the
    super-triangle, so only the triangle count shows it."""
    from repro.geometry.delaunay import _check_delaunay

    P, n, tris = _final_triangles(_pts(40, seed=7))
    P2 = np.vstack([P[:n], P[:n].mean(axis=0), P[n:]])
    with pytest.raises(ValueError, match="span"):
        _check_delaunay(P2, n + 1, np.where(tris >= n, tris + 1, tris))


def test_signs_match_exact_fractions_on_near_ties():
    """Points of a rounded circle and of a lattice one ulp off: the
    signs of both predicates equal their exact rational values."""
    from fractions import Fraction

    from repro.geometry.delaunay import _incircle, _orient, _signs

    t = np.random.default_rng(0).random(60) * 2 * np.pi
    ring = np.column_stack([np.cos(t), np.sin(t)]) * 1e3 + 1e6
    grid = np.random.default_rng(1).integers(0, 3, (60, 2)) + 1e8
    grid[::2, 0] = np.nextafter(grid[::2, 0], np.inf)
    for P in (ring, grid):
        idx = np.random.default_rng(2).integers(0, 60, (4, 400))
        for fn, degree, corners in ((_orient, 2, idx[:3]), (_incircle, 4, idx)):
            got = _signs(fn, degree, P, *corners)
            exact = [fn(*[(Fraction(P[v, 0]), Fraction(P[v, 1])) for v in k]) for k in corners.T]
            assert np.array_equal(got, [(e > 0) - (e < 0) for e in exact])
