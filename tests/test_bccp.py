"""BCCP / BCCP* kernels against brute force, and the bounding-sphere
bounds MemoGFK prunes with (Figure 3a: lb <= BCCP <= ub)."""
import numpy as np
import pytest

from repro.core import bccp as bccp_mod
from repro.core.bccp import bccp, bccp_batch, bccp_kernel, bccp_star
from repro.core.memogfk import _v_bounds
from repro.core.wspd import v_center_dist, wspd
from repro.geometry import kdtree as kdt


def _tree(n=150, d=3, seed=0, with_cd=True):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)) * 10
    t = kdt.build(pts)
    if with_cd:
        kdt.attach_core_distances(t, rng.random(n) * 4)
    return t


@pytest.mark.parametrize("a,b", [(1, 1), (1, 7), (6, 6), (40, 3), (33, 33)])
@pytest.mark.parametrize("d", [1, 2, 5])
def test_bccp_kernel_vs_bruteforce(a, b, d):
    rng = np.random.default_rng(a * 100 + b + d)
    P = rng.random((a, d))
    Q = rng.random((b, d)) + 0.5
    i, j, w = bccp_kernel(P, Q)
    dmat = np.linalg.norm(P[:, None] - Q[None], axis=2)
    assert np.isclose(w, dmat.min())
    assert np.isclose(np.linalg.norm(P[i] - Q[j]), w)


@pytest.mark.parametrize("a,b", [(1, 1), (5, 9), (30, 30)])
def test_bccp_star_kernel_vs_bruteforce(a, b):
    rng = np.random.default_rng(a + b)
    P = rng.random((a, 3))
    Q = rng.random((b, 3)) + 0.2
    cdP = rng.random(a)
    cdQ = rng.random(b)
    i, j, w = bccp_kernel(P, Q, cdP, cdQ)
    dmat = np.linalg.norm(P[:, None] - Q[None], axis=2)
    dm = np.maximum(dmat, np.maximum(cdP[:, None], cdQ[None]))
    assert np.isclose(w, dm.min())
    assert np.isclose(
        max(np.linalg.norm(P[i] - Q[j]), cdP[i], cdQ[j]), w
    )


@pytest.mark.parametrize("star", [False, True], ids=["bccp", "bccp_star"])
def test_bccp_kernel_chunking(monkeypatch, star):
    """Force the row-chunked path (cells > _CHUNK_CELLS)."""
    monkeypatch.setattr(bccp_mod, "_CHUNK_CELLS", 50)
    rng = np.random.default_rng(3)
    P, Q = rng.random((40, 2)), rng.random((37, 2))
    dm = np.linalg.norm(P[:, None] - Q[None], axis=2)
    cds = ()
    if star:
        cds = (rng.random(40) * 0.3, rng.random(37) * 0.3)
        dm = np.maximum(dm, np.maximum(cds[0][:, None], cds[1][None]))
    i, j, w = bccp_kernel(P, Q, *cds)
    assert np.isclose(w, dm.min())
    assert np.isclose(dm[i, j], w)


def test_bccp_exact_for_coincident_points():
    """The expanded-form cancellation must not leak into the result."""
    P = np.array([[1.23456789, 9.87654321]])
    i, j, w = bccp_kernel(P, P.copy())
    assert w == 0.0


@pytest.mark.parametrize("star", [False, True], ids=["bccp", "bccp_star"])
def test_kernels_exact_far_from_origin(star):
    """At 1e9 the expanded form cancels away every cross distance unless
    the blocks are shifted near the origin first."""
    rng = np.random.default_rng(7)
    P, Q = rng.random((30, 2)) + 1e9, rng.random((40, 2)) + 1e9 + 0.5
    cdP, cdQ = rng.random(30) * 0.01, rng.random(40) * 0.01
    dm = np.linalg.norm(P[:, None] - Q[None], axis=2)
    if star:
        dm = np.maximum(dm, np.maximum(cdP[:, None], cdQ[None]))
        _, _, w = bccp_kernel(P, Q, cdP, cdQ)
    else:
        _, _, w = bccp_kernel(P, Q)
    assert np.isclose(w, dm.min(), rtol=1e-12, atol=0)


def test_tree_bccp_returns_original_ids():
    t = _tree(with_cd=False)
    internal = np.flatnonzero(t.left >= 0)
    for v in internal[:30]:
        a, b = int(t.left[v]), int(t.right[v])
        u, w_, dist = bccp(t, a, b)
        # u, w_ are ids into the *original* point order.
        assert u in t.points_of(a) and w_ in t.points_of(b)


def test_star_bounds_bracket_bccp_star():
    t = _tree(seed=5)
    rng = np.random.default_rng(1)
    A, B = rng.integers(0, t.n_nodes, (2, 200))
    lb, ub = _v_bounds(t, A, B, True, v_center_dist(t, A, B))
    for k in range(200):
        _, _, w = bccp_star(t, int(A[k]), int(B[k]))
        assert lb[k] <= w + 1e-9
        assert ub[k] >= w - 1e-9


def _wspd_tree(d, n=320, seed=0, dup=0):
    """kd-tree over four far-apart uniform clusters (the last ``dup``
    rows repeat earlier ones) with random core distances, and its s=2
    WSPD."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d)) * 10 + 1000.0 * (np.arange(n) * 4 // n)[:, None]
    if dup:
        pts[-dup:] = pts[:dup]
    t = kdt.build(pts)
    kdt.attach_core_distances(t, rng.random(n))
    return t, wspd(t, "s2")


def _check_batch(t, pairs, star):
    """bccp_batch must match per-pair bccp/bccp_star weights, and its
    (u, v) must lie in the pair's two nodes and achieve the weight."""
    got = bccp_batch(t, pairs[:, 0], pairs[:, 1], star)
    fn = bccp_star if star else bccp
    pts = t.pts[np.argsort(t.perm)]  # original point order
    cd = t.cd[np.argsort(t.perm)]
    for (a, b), (u, v, w) in zip(pairs, got):
        assert np.isclose(w, fn(t, int(a), int(b))[2], rtol=1e-12, atol=1e-12)
        u, v = int(u), int(v)
        assert u in t.points_of(a) and v in t.points_of(b)
        achieved = np.linalg.norm(pts[u] - pts[v])
        if star:
            achieved = max(achieved, cd[u], cd[v])
        assert np.isclose(achieved, w, rtol=1e-12, atol=1e-12)
    return got


@pytest.mark.parametrize("star", [False, True], ids=["bccp", "bccp_star"])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_bccp_batch_matches_per_pair_on_wspd(d, star):
    """Real WSPD pair sets mix segmented (small) and matmul (large) pairs."""
    t, pairs = _wspd_tree(d, seed=d)
    sz = t.hi - t.lo
    cells = sz[pairs[:, 0]] * sz[pairs[:, 1]]
    assert (cells <= bccp_mod._SMALL_CELLS).any()
    assert (cells > bccp_mod._SMALL_CELLS).any()
    _check_batch(t, pairs, star)


@pytest.mark.parametrize("star", [False, True], ids=["bccp", "bccp_star"])
def test_bccp_batch_coincident_points(star):
    """Duplicated points give zero-distance pairs; the Euclidean edge
    weight must be exactly 0."""
    t, pairs = _wspd_tree(2, n=120, seed=11, dup=40)
    got = _check_batch(t, pairs, star)
    if not star:
        assert (got[:, 2] == 0.0).sum() >= 40


def test_bccp_batch_empty():
    t, _ = _wspd_tree(3, n=50)
    none = np.empty(0, dtype=np.int64)
    for star in (False, True):
        assert bccp_batch(t, none, none, star).shape == (0, 3)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_bccp_batch_chunk_boundaries(monkeypatch, chunk):
    """Chunks smaller than one pair, and chunks that split the batch at
    arbitrary pair boundaries, give the same answer."""
    t, pairs = _wspd_tree(3, n=200, seed=4)
    want = [bccp_batch(t, pairs[:, 0], pairs[:, 1], star) for star in (0, 1)]
    monkeypatch.setattr(bccp_mod, "_SEG_CHUNK_CELLS", chunk)
    for star in (0, 1):
        got = bccp_batch(t, pairs[:, 0], pairs[:, 1], star)
        assert np.array_equal(got, want[star])
