"""BCCP / BCCP* kernels against brute force, and the bounding-sphere
bounds MemoGFK prunes with (Figure 3a: lb <= BCCP <= ub)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _dense(t, a, b, star):
    """Every cross cell of nodes a, b in ``_dist`` form, as an
    |A| x |B| matrix over tree rows."""
    A = np.arange(t.lo[a], t.hi[a])
    B = np.arange(t.lo[b], t.hi[b])
    I, J = np.repeat(A, B.size), np.tile(B, A.size)
    w = bccp_mod._dist(t.pts[I], t.pts[J])
    if star:
        w = np.maximum(w, np.maximum(t.cd[I], t.cd[J]))
    return w.reshape(A.size, B.size)


def _two_clusters(n=400, d=3, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    pts[n // 2 :, 0] += gap
    return pts


def _descent_tree(case):
    """(tree, its root children): one pair of more than ``_LEAF_CELLS``
    cells, so ``bccp_batch`` solves it by the descent."""
    rng = np.random.default_rng(1)
    if case == "far-clusters":
        pts = _two_clusters()
    elif case == "uniform-7d":
        pts = rng.random((400, 7))
    elif case == "duplicates":
        pts = np.tile(_two_clusters(n=140, gap=1.0), (3, 1))
    elif case == "translated-1e9":
        pts = _two_clusters(gap=0.5) + 1e9
    elif case == "tied-core-distances":
        pts = _two_clusters(gap=0.5)
    t = kdt.build(pts)
    cd = rng.random(t.n) * 0.5
    if case == "tied-core-distances":
        cd = rng.choice([0.6, 0.8], t.n)  # BCCP* weights mostly a core distance
    kdt.attach_core_distances(t, cd)
    a, b = int(t.left[0]), int(t.right[0])
    assert t.size(a) * t.size(b) > bccp_mod._LEAF_CELLS
    return t, a, b


def _check_against_dense(t, a, b, star, w_dense):
    (u, v, w), = bccp_batch(t, np.array([a]), np.array([b]), star)
    assert np.isclose(w, w_dense.min(), rtol=1e-12, atol=0)
    row = np.empty_like(t.perm)
    row[t.perm] = np.arange(t.n)
    i, j = row[int(u)], row[int(v)]
    assert t.lo[a] <= i < t.hi[a] and t.lo[b] <= j < t.hi[b]
    assert np.isclose(w_dense[i - t.lo[a], j - t.lo[b]], w, rtol=1e-12, atol=0)
    return u, v, w


DESCENT_CASES = [
    "far-clusters", "uniform-7d", "duplicates", "translated-1e9", "tied-core-distances"
]


@pytest.mark.parametrize("star", [False, True], ids=["bccp", "bccp_star"])
@pytest.mark.parametrize("case", DESCENT_CASES)
def test_descent_matches_dense(case, star):
    """A pair the descent cuts into sub-pairs gets the dense minimum,
    u in A and v in B achieving it; on a unique minimum it is the cell
    ``bccp``/``bccp_star`` finds over the whole pair."""
    t, a, b = _descent_tree(case)
    w_dense = _dense(t, a, b, star)
    u, v, w = _check_against_dense(t, a, b, star, w_dense)
    if (w_dense == w_dense.min()).sum() == 1:
        fn = bccp_star if star else bccp
        assert fn(t, a, b)[:2] == (int(u), int(v))


@pytest.mark.parametrize("leaf", [16, 1 << 14])
def test_descent_ties_go_to_the_first_cell(monkeypatch, leaf):
    """Two clusters 0.2 apart whose BCCP* cells within 0.5 of each other
    all weigh the core distance 0.5: many ties, spread over sub-pairs
    that survive while the far ones are pruned. The answer is the first
    minimal cell in row-major (tree) order, as the kernels pick it."""
    monkeypatch.setattr(bccp_mod, "_LEAF_CELLS", leaf)
    t = kdt.build(_two_clusters(gap=1.2))
    kdt.attach_core_distances(t, np.full(t.n, 0.5))
    a, b = int(t.left[0]), int(t.right[0])
    w_dense = _dense(t, a, b, True)
    assert (w_dense == 0.5).sum() > 100 and w_dense.max() > 1.0
    i, j = np.unravel_index(np.argmin(w_dense), w_dense.shape)
    (u, v, _), = bccp_batch(t, np.array([a]), np.array([b]), True)
    assert (int(u), int(v)) == (t.perm[t.lo[a] + i], t.perm[t.lo[b] + j])


@pytest.mark.parametrize("star", [False, True], ids=["bccp", "bccp_star"])
def test_descent_prunes_far_clusters(monkeypatch, star):
    """On two far clusters the descent hands the kernels far fewer
    cells than |A||B|, and still finds the dense minimum."""
    t, a, b = _descent_tree("far-clusters")
    sz = t.hi - t.lo
    cells = []
    seg = bccp_mod._segmented

    def counting_segmented(pts, cd, alo, na, blo, nb):
        cells.append(int((na * nb).sum()))
        return seg(pts, cd, alo, na, blo, nb)

    name = "bccp_star" if star else "bccp"
    kernel = getattr(bccp_mod, name)

    def counting_kernel(tree, x, y):
        cells.append(int(sz[x] * sz[y]))
        return kernel(tree, x, y)

    monkeypatch.setattr(bccp_mod, "_segmented", counting_segmented)
    monkeypatch.setattr(bccp_mod, name, counting_kernel)
    _check_against_dense(t, a, b, star, _dense(t, a, b, star))
    assert 0 < sum(cells) < sz[a] * sz[b] // 4


def test_box_gap_never_exceeds_a_cell():
    """The descent's lower bound is at most every rounded cell weight,
    with no tolerance, also far from the origin."""
    for offset in (0.0, 1e9):
        t = kdt.build(np.random.default_rng(2).random((120, 3)) + offset)
        rng = np.random.default_rng(3)
        A, B = rng.integers(0, t.n_nodes, (2, 300))
        gap = bccp_mod._box_gap(t, A, B)
        for k in range(300):
            assert gap[k] <= _dense(t, A[k], B[k], False).min()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 160),
    d=st.integers(1, 5),
    grid=st.sampled_from([0, 2, 5]),
    offset=st.sampled_from([0.0, 1e9]),
    leaf=st.sampled_from([1, 16, 600]),
    star=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_descent_hypothesis(n, d, grid, offset, leaf, star, seed):
    """Random pair batches (integer grids make duplicates and ties)
    with small leaves, so that every pair of more than ``leaf`` cells is
    cut; each pair gets its dense minimum, achieved by u in A and v in
    B. On a grid every weight is exact in both kernels, so ties go to
    the first minimal cell in row-major order."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, grid, (n, d)).astype(float) if grid else rng.random((n, d))
    t = kdt.build(pts + offset)
    cd = rng.integers(0, 3, n) * 0.5 if grid else rng.random(n)
    kdt.attach_core_distances(t, cd)
    A, B = rng.integers(0, t.n_nodes, (2, 12))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bccp_mod, "_LEAF_CELLS", leaf)
        got = bccp_batch(t, A, B, star)
    row = np.empty_like(t.perm)
    row[t.perm] = np.arange(t.n)
    for (a, b), (u, v, w) in zip(zip(A, B), got):
        w_dense = _dense(t, a, b, star)
        assert np.isclose(w, w_dense.min(), rtol=1e-12, atol=0)
        i, j = row[int(u)] - t.lo[a], row[int(v)] - t.lo[b]
        assert 0 <= i < w_dense.shape[0] and 0 <= j < w_dense.shape[1]
        assert np.isclose(w_dense[i, j], w, rtol=1e-12, atol=0)
        if grid:
            assert (i, j) == np.unravel_index(np.argmin(w_dense), w_dense.shape)
