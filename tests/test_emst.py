"""EMST correctness: every implementation against the O(n^2) Prim
oracle, across dimensions, sizes and distributions (the MST edge-weight
multiset of a graph is unique, so sorted weights must match exactly)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core import bccp as bccp_mod
from repro.core.emst import emst_delaunay, emst_gfk, emst_memogfk, emst_naive
from repro.core.hdbscan import hdbscan_mst
from repro.core.optics import optics_approx_mst
from repro.graph.boruvka import emst_boruvka
from repro.graph.prim import mst_bruteforce
from tests.test_kdtree import HUGE, TINY, rejection, spoil

METHODS = {
    "naive": lambda pts: emst_naive(pts)[0],
    "gfk": lambda pts: emst_gfk(pts)[0],
    "memogfk": lambda pts: emst_memogfk(pts)[0],
    "boruvka": emst_boruvka,
}
# Delaunay is 2D only, so it joins the tests whose inputs are 2D.
METHODS_2D = {**METHODS, "delaunay": lambda pts: emst_delaunay(pts)[0]}


def _dataset(dist, n, d, seed):
    if dist == "uniform":
        return sd.uniform_fill(n, d, seed=seed)
    return sd.ss_varden(n, d, seed=seed)


CASES = [
    (dist, n, d)
    for dist in ("uniform", "varden")
    for (n, d) in [(40, 2), (200, 2), (600, 2), (40, 3), (200, 3), (600, 3), (150, 5), (80, 7)]
]


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("dist,n,d", CASES)
def test_emst_matches_prim(method, dist, n, d):
    pts = _dataset(dist, n, d, seed=n + d)
    ref = np.sort(mst_bruteforce(pts)[:, 2])
    edges = METHODS[method](pts)
    assert edges.shape == (n - 1, 3)
    assert np.allclose(np.sort(edges[:, 2]), ref)
    # Edges reference real points and are self-loop-free.
    assert edges[:, :2].min() >= 0 and edges[:, :2].max() < n
    assert (edges[:, 0] != edges[:, 1]).all()


@pytest.mark.parametrize("dist", ["uniform", "varden"])
@pytest.mark.parametrize("n", [50, 300, 800])
def test_emst_delaunay_matches_prim_2d(dist, n):
    pts = _dataset(dist, n, 2, seed=n)
    ref = np.sort(mst_bruteforce(pts)[:, 2])
    edges, _ = emst_delaunay(pts)
    assert edges.shape == (n - 1, 3)
    assert np.allclose(np.sort(edges[:, 2]), ref)


def test_emst_methods_agree_midsize():
    pts = sd.uniform_fill(2500, 3, seed=77)
    w = None
    for name in ("naive", "gfk", "memogfk"):
        edges = METHODS[name](pts)
        tw = float(edges[:, 2].sum())
        if w is None:
            w = tw
        assert np.isclose(tw, w), name


def test_memogfk_materializes_fewer_pairs():
    """The paper's memory claim: MemoGFK's peak materialized pairs are a
    small fraction of the full WSPD that Naive/GFK must hold."""
    pts = sd.uniform_fill(3000, 3, seed=5)
    _, s_naive = emst_naive(pts)
    _, s_memo = emst_memogfk(pts)
    assert s_memo.pairs_materialized < s_naive.pairs_materialized / 2


def test_gfk_computes_fewer_bccps_than_naive():
    """GFK's connectivity filter must prune BCCP computations."""
    pts = sd.uniform_fill(3000, 3, seed=6)
    _, s_naive = emst_naive(pts)
    _, s_gfk = emst_gfk(pts)
    assert s_gfk.bccp_computed < s_naive.bccp_computed


def test_emst_tiny_inputs():
    for n in (1, 2, 3):
        pts = np.random.default_rng(n).random((n, 2))
        for name, fn in METHODS_2D.items():
            assert fn(pts).shape == (n - 1, 3), (name, n)
        for method in ("memogfk", "gantao"):
            assert hdbscan_mst(pts, 1, method=method)[0].shape == (n - 1, 3), (method, n)
        assert optics_approx_mst(pts, 1)[0].shape == (n - 1, 3), ("optics", n)


def test_emst_collinear_points():
    pts = np.column_stack([np.arange(30.0), np.zeros(30)])
    for name in ("naive", "gfk", "memogfk", "boruvka"):
        edges = METHODS[name](pts)
        assert np.allclose(edges[:, 2], 1.0)


def test_emst_with_duplicates():
    rng = np.random.default_rng(3)
    base = rng.random((40, 3))
    pts = np.vstack([base, base[:10]])
    ref = np.sort(mst_bruteforce(pts)[:, 2])
    for name in ("naive", "gfk", "memogfk", "boruvka"):
        edges = METHODS[name](pts)
        assert np.allclose(np.sort(edges[:, 2]), ref), name


@pytest.mark.parametrize(
    "pts",
    [
        sd.ht_like(400, seed=1),
        sd.chem_like(300, seed=2),
        np.tile(sd.uniform_fill(60, 3, seed=3), (5, 1)),
    ],
    ids=["10d-ht", "16d-chem", "3d-5x-duplicates"],
)
def test_boruvka_matches_prim_where_boxes_prune_little(pts):
    """Box bounds prune least in high dimensions, and every point of a
    5x duplicated set is its own copies' nearest point; the weights must
    still be Prim's."""
    edges = emst_boruvka(pts)
    assert edges.shape == (pts.shape[0] - 1, 3)
    ref = np.sort(mst_bruteforce(pts)[:, 2])
    assert np.allclose(np.sort(edges[:, 2]), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "pts",
    [
        np.array(
            [[1, 3], [1, 2.4], [2.6, 1.2], [1.3, 1.1], [0.3, 1.4], [0.7, 0.8], [0.6, 0.6], [2.4, 1.3], [1, 3]]
        ),
        np.vstack([_dataset("uniform", 200, 2, seed=5)] * 2),
    ],
    ids=["one-duplicate", "every-point-twice"],
)
def test_delaunay_with_duplicates_matches_prim(pts):
    """Each later copy of a point joins its first copy by a zero-length
    edge and only the distinct points are triangulated; inserting the
    copy into the triangulation gave a wrong tree."""
    edges, _ = emst_delaunay(pts)
    assert edges.shape == (pts.shape[0] - 1, 3)
    assert np.isclose(edges[:, 2].sum(), mst_bruteforce(pts)[:, 2].sum(), rtol=1e-12, atol=0)


def test_delaunay_on_collinear_points_matches_prim():
    """All-collinear input has no triangle on three of its points; the
    super-triangle's corners still make a triangulation whose edges hold
    the path along the line."""
    pts = np.column_stack([np.arange(50.0), 2.0 * np.arange(50.0)])
    edges, _ = emst_delaunay(pts)
    assert edges.shape == (49, 3)
    assert np.isclose(edges[:, 2].sum(), mst_bruteforce(pts)[:, 2].sum(), rtol=1e-12, atol=0)


@pytest.mark.parametrize("e", [105, 150])
def test_delaunay_far_beyond_unit_scale_matches_prim(e):
    """At these extents the predicates' float terms overflow; their
    signs then come from exact fractions."""
    pts = np.random.default_rng(3).random((60, 2)) * 10.0**e
    edges, _ = emst_delaunay(pts)
    assert edges.shape == (59, 3)
    assert np.isclose(edges[:, 2].sum(), mst_bruteforce(pts)[:, 2].sum(), rtol=1e-12, atol=0)


def test_delaunay_rejects_non_2d():
    with pytest.raises(ValueError):
        emst_delaunay(np.zeros((10, 3)))


@pytest.mark.parametrize(
    "pts,msg",
    [(np.zeros(10), r"\(n, d\)"), (np.empty((0, 2)), "empty")],
    ids=["1d", "empty"],
)
def test_delaunay_shares_the_point_check(pts, msg):
    """Same input boundary as every other EMST method (kdtree.build)."""
    with pytest.raises(ValueError, match=msg):
        emst_delaunay(pts)


@pytest.mark.parametrize("small_cells", [None, 0], ids=["batched", "matmul"])
@pytest.mark.parametrize("name", ["naive", "gfk", "memogfk", "delaunay", "boruvka"])
def test_emst_survives_large_translation(monkeypatch, name, small_cells):
    """Far from the origin the expanded |p|^2 + |q|^2 - 2 p.q form loses
    every cross distance to cancellation, and Delaunay's float
    predicates lose most of their digits; the MST weight must not move,
    also with every pair sent through the matmul kernels."""
    if small_cells is not None:
        monkeypatch.setattr(bccp_mod, "_SMALL_CELLS", small_cells)
    pts = np.random.default_rng(0).random((300, 2))
    ref = mst_bruteforce(pts)[:, 2].sum()
    edges = METHODS_2D[name](pts + 1e9)
    assert edges.shape == (299, 3)
    assert np.isclose(edges[:, 2].sum(), ref, rtol=1e-6, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, *HUGE, *TINY])
@pytest.mark.parametrize(
    "method", ["naive", "gfk", "memogfk", "boruvka", "delaunay"]
)
def test_emst_rejects_non_finite_points(method, bad):
    pts = spoil(np.random.default_rng(1).random((50, 2)), bad, 17, 1)
    with pytest.raises(ValueError, match=rejection(bad)):
        METHODS_2D[method](pts)


@pytest.mark.parametrize("method", list(METHODS_2D))
def test_emst_accepts_the_smallest_extent_that_squares(method):
    """At extent 1e-150 squared distances are still normal floats, so
    the input check accepts the points and every method is exact."""
    pts = np.random.default_rng(3).random((60, 2)) * 1e-150
    edges = METHODS_2D[method](pts)
    assert edges.shape == (59, 3)
    assert np.isclose(edges[:, 2].sum(), mst_bruteforce(pts)[:, 2].sum(), rtol=1e-12, atol=0)
