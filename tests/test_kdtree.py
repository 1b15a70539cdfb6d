"""kd-tree build invariants — the substrate every algorithm stands on."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import kdtree as kdt
from repro.geometry import knn
from repro.geometry.knn import core_distances

DIMS = [1, 2, 3, 5, 7]
SIZES = [1, 2, 3, 17, 128, 500]
ARRAYS = ("pts", "perm", "left", "right", "lo", "hi", "bb_min", "bb_max", "center", "radius")
# 2**53 + 2k are adjacent floats: the cut between 2**53 and 2**53 + 2
# rounds onto 2**53, so the midpoint split leaves the left side empty.
ULP_BASE, ULP_STEP = 2.0**53, 2.0


def _pts(n, d, seed=0, scale=10.0):
    return np.random.default_rng(seed).random((n, d)) * scale


_rng = np.random.default_rng(14)
# Finite inputs whose box arithmetic overflows float64. Unless the input
# check rejects them, EMST-GFK hangs on the first two and returns edges
# of weight inf on the last two, and MemoGFK runs out of pairs on all four.
HUGE = {
    "corners-1e308": np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]) * 1e308,
    "offset-1.5e308": 1.5e308 + _rng.random((50, 2)),
    "3d-1e160": _rng.random((50, 3)) * 1e160,
    "2d-1e200": _rng.random((50, 2)) * 1e200,
}


_base = np.random.default_rng(3).random((60, 2))
# Inputs of nonzero extent whose squared distances underflow float64.
# Unless the input check rejects them, every EMST and HDBSCAN* method
# (and the Prim oracle) returns a tree of weight 0 on the last two, and
# EMST trees 0.6% light on the first; at extent 1e-150 all are exact.
TINY = {
    "2d-1e-160": _base * 1e-160,
    "2d-1e-170": _base * 1e-170,
    "2d-1e-200": _base * 1e-200,
}


def spoil(pts, bad, row, col):
    """``HUGE[bad]`` or ``TINY[bad]`` when ``bad`` names one of them,
    else ``pts`` with pts[row, col] set to ``bad``."""
    if isinstance(bad, str):
        return {**HUGE, **TINY}[bad].copy()
    pts[row, col] = bad
    return pts


def rejection(bad) -> str:
    """What the ValueError for ``spoil``'s input says."""
    return "close together" if isinstance(bad, str) and bad in TINY else "finite"


def _reference_build(points):
    """The depth-first build (explicit stack, right child popped first)
    that ``kdt.build`` reproduces level by level. Returns the tree arrays
    and the fallback splits taken below the root: "flat" (zero width,
    identity order) and "sorted" (empty side, stable sort)."""
    pts = np.array(points, dtype=np.float64)
    n, d = pts.shape
    perm = np.arange(n, dtype=np.int64)
    m = 2 * n - 1
    left = np.full(m, -1, dtype=np.int32)
    right = np.full(m, -1, dtype=np.int32)
    los = np.empty(m, dtype=np.int64)
    his = np.empty(m, dtype=np.int64)
    bb_min = np.empty((m, d))
    bb_max = np.empty((m, d))
    los[0], his[0] = 0, n
    fallbacks = set()
    used = 1
    stack = [0]
    while stack:
        node = stack.pop()
        lo, hi = int(los[node]), int(his[node])
        if hi - lo == 1:
            continue
        seg = pts[lo:hi]
        mn = bb_min[node] = seg.min(axis=0)
        mx = bb_max[node] = seg.max(axis=0)
        widths = mx - mn
        dim = int(np.argmax(widths))
        if widths[dim] <= 0.0:
            mid = (hi - lo) // 2
            order = np.arange(hi - lo)
            kind = "flat"
        else:
            cut = 0.5 * (mn[dim] + mx[dim])
            keys = seg[:, dim]
            mask = keys < cut
            mid = int(mask.sum())
            if mid == 0 or mid == hi - lo:
                mid = (hi - lo) // 2
                order = np.argsort(keys, kind="stable")
                kind = "sorted"
            else:
                order = np.argsort(~mask, kind="stable")
                kind = None
        if kind is not None and node != 0:
            fallbacks.add(kind)
        pts[lo:hi] = seg[order]
        perm[lo:hi] = perm[lo:hi][order]
        l, r = used, used + 1
        used += 2
        left[node], right[node] = l, r
        los[l], his[l], los[r], his[r] = lo, lo + mid, lo + mid, hi
        stack.append(l)
        stack.append(r)
    leaves = left < 0
    bb_min[leaves] = bb_max[leaves] = pts[los[leaves]]
    center = 0.5 * (bb_min + bb_max)
    far = np.maximum(center - bb_min, bb_max - center)
    radius = np.sqrt(np.einsum("ij,ij->i", far, far))
    arrays = dict(
        pts=pts, perm=perm, left=left, right=right, lo=los, hi=his,
        bb_min=bb_min, bb_max=bb_max, center=center,
        radius=np.where(radius > 0.0, np.nextafter(radius, np.inf), 0.0),
    )
    return arrays, fallbacks


def _assert_matches_reference(pts):
    ref, fallbacks = _reference_build(pts)
    t = kdt.build(pts)
    for name in ARRAYS:
        got = getattr(t, name)
        assert got.dtype == ref[name].dtype, name
        assert np.array_equal(got, ref[name]), name
    return fallbacks


def _lattice(ints, step, base=0.0):
    return base + np.asarray(ints, dtype=np.float64) * step


@pytest.fixture(scope="module")
def tree_cases():
    cases = {}
    for d in DIMS:
        for n in SIZES:
            pts = _pts(n, d, seed=d * 100 + n)
            cases[(n, d)] = (pts, kdt.build(pts.copy()))
    return cases


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_perm_is_permutation(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    assert np.array_equal(np.sort(t.perm), np.arange(n))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_reorder_consistent(tree_cases, n, d):
    pts, t = tree_cases[(n, d)]
    assert np.allclose(t.pts, pts[t.perm])


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_root_covers_all_and_leaves_singleton(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    assert t.lo[0] == 0 and t.hi[0] == n
    leaves = t.left < 0
    assert np.all((t.hi - t.lo)[leaves] == 1)
    # leaf ranges partition [0, n)
    leaf_lo = np.sort(t.lo[leaves])
    assert np.array_equal(leaf_lo, np.arange(n))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_children_partition_parent(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    internal = np.flatnonzero(t.left >= 0)
    l, r = t.left[internal], t.right[internal]
    assert np.array_equal(t.lo[internal], t.lo[l])
    assert np.array_equal(t.hi[l], t.lo[r])
    assert np.array_equal(t.hi[internal], t.hi[r])


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_bboxes_tight(tree_cases, n, d):
    _, t = tree_cases[(n, d)]
    for v in range(t.n_nodes):
        seg = t.pts[t.lo[v] : t.hi[v]]
        assert np.array_equal(t.bb_min[v], seg.min(axis=0))
        assert np.array_equal(t.bb_max[v], seg.max(axis=0))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_node_dist_bounds_cross_distances(d):
    pts = _pts(200, d, seed=7)
    t = kdt.build(pts)
    rng = np.random.default_rng(1)
    internal = np.flatnonzero(t.left >= 0)
    for _ in range(50):
        a, b = rng.choice(internal, 2)
        A = t.pts[t.lo[a] : t.hi[a]]
        B = t.pts[t.lo[b] : t.hi[b]]
        dmat = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
        assert t.node_dist(a, b) <= dmat.min() + 1e-9
        assert t.node_dist_max(a, b) >= dmat.max() - 1e-9


@pytest.mark.parametrize(
    "pts",
    [
        np.round(np.random.default_rng(10).random((110, 2)) * 2, 1) + [1e9, 1e9 + 0.5],
        _pts(300, 3, seed=11) + 1e9,
        _pts(200, 5, seed=12, scale=1e-3) - 1e9,
    ],
    ids=["rounded-lattice", "uniform-3d", "small-5d"],
)
def test_every_point_lies_in_its_node_sphere_far_from_origin(pts):
    """Node centers round far from the origin, so the sphere must be
    measured around the stored center: every point's distance to it, in
    the form the traversals compute (``wspd.v_center_dist``), is at most
    the node's radius, which makes d(A, B) a lower bound on BCCP."""
    t = kdt.build(pts)
    size = t.hi - t.lo
    node = np.repeat(np.arange(t.n_nodes), size)
    row = t.lo[node] + np.arange(node.size) - np.repeat(np.cumsum(size) - size, size)
    d = t.pts[row] - t.center[node]
    dist = np.sqrt(np.einsum("ij,ij->i", d, d))
    assert (dist <= t.radius[node]).all()


def test_duplicate_points_build():
    pts = np.zeros((64, 3))
    t = kdt.build(pts)
    assert np.all((t.hi - t.lo)[t.left < 0] == 1)
    assert np.allclose(t.radius, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, *HUGE, *TINY])
def test_build_rejects_non_finite_points(bad):
    pts = spoil(_pts(30, 2), bad, 3, 1)
    with pytest.raises(ValueError, match=rejection(bad)):
        kdt.build(pts)


def test_leaf_size_respected():
    """k-NN blocks tile [0, n) in row order, each holds at most the cap,
    and each one's parent holds more."""
    pts = _pts(300, 3, seed=9)
    t = kdt.build(pts)
    b = knn.blocks(t)
    assert t.lo[b[0]] == 0 and t.hi[b[-1]] == 300
    assert np.array_equal(t.lo[b[1:]], t.hi[b[:-1]])
    sizes = t.hi[b] - t.lo[b]
    assert sizes.max() <= knn._BLOCK
    assert sizes.min() >= 1
    parent = np.full(t.n_nodes, -1)
    internal = np.flatnonzero(t.left >= 0)
    parent[t.left[internal]] = internal
    parent[t.right[internal]] = internal
    assert (b != 0).all()
    assert ((t.hi - t.lo)[parent[b]] > knn._BLOCK).all()


@pytest.mark.parametrize("min_pts", [1, 2, 5])
def test_attach_core_distances_node_summaries(min_pts):
    pts = _pts(150, 3, seed=4)
    t = kdt.build(pts.copy())
    cd = core_distances(t, min_pts)
    kdt.attach_core_distances(t, cd)
    cd_re = cd[t.perm]
    for v in range(t.n_nodes):
        seg = cd_re[t.lo[v] : t.hi[v]]
        assert t.cd_min[v] == seg.min()
        assert t.cd_max[v] == seg.max()


def test_well_separated_scalar_definition():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    t = kdt.build(pts.copy())
    root_l, root_r = int(t.left[0]), int(t.right[0])
    # Clusters {0,1} and {10,11}: radius 0.5 each, center gap 10
    # => gap - 2*rmax = 9 >= 2 * 0.5: well separated at s=2.
    assert t.well_separated(root_l, root_r, 2.0)
    assert not t.well_separated(root_l, root_r, 25.0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_build_invariants_hypothesis(n, d, seed):
    pts = np.random.default_rng(seed).normal(size=(n, d)) * 5
    t = kdt.build(pts.copy())
    assert np.array_equal(np.sort(t.perm), np.arange(n))
    assert t.n_nodes == 2 * n - 1
    leaves = t.left < 0
    assert leaves.sum() == n


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_split_nodes_numbered_in_right_first_preorder(tree_cases, n, d):
    """The k-th split node of a right-first preorder walk has children
    2k + 1 (left) and 2k + 2 (right)."""
    _, t = tree_cases[(n, d)]
    stack, k = [0], 0
    while stack:
        v = stack.pop()
        if t.left[v] < 0:
            continue
        assert (t.left[v], t.right[v]) == (2 * k + 1, 2 * k + 2)
        k += 1
        stack += [int(t.left[v]), int(t.right[v])]
    assert k == n - 1


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_left_child_holds_rows_below_the_cut(d):
    """Every midpoint split sends exactly the rows with key < cut on the
    widest dimension to the left child."""
    pts = _pts(300, d, seed=d)
    t = kdt.build(pts)
    for v in np.flatnonzero(t.left >= 0):
        widths = t.bb_max[v] - t.bb_min[v]
        dim = int(np.argmax(widths))
        cut = 0.5 * (t.bb_min[v, dim] + t.bb_max[v, dim])
        ids = t.points_of(v)
        below = ids[pts[ids, dim] < cut]
        assert np.array_equal(np.sort(t.points_of(t.left[v])), np.sort(below))


def test_split_partition_is_stable():
    """Both sides keep the rows' order: with two flat clusters (whose
    subtrees keep identity order) the final row order is the original
    order of each cluster, left cluster first."""
    side = np.random.default_rng(3).integers(0, 2, 40)
    pts = np.stack([side * 5.0, np.zeros(40)], axis=1)
    t = kdt.build(pts)
    expect = np.concatenate([np.flatnonzero(side == 0), np.flatnonzero(side == 1)])
    assert np.array_equal(t.perm, expect)


@pytest.mark.parametrize(
    "ints,step,base",
    [
        (np.random.default_rng(0).integers(0, 3, (300, 2)), 1.0, 0.0),
        (np.random.default_rng(1).integers(0, 2, (300, 2)), ULP_STEP, ULP_BASE),
    ],
)
def test_build_matches_reference_on_duplicate_lattices(ints, step, base):
    """Duplicate-heavy lattices take both fallbacks below the root; the
    level-synchronous build must still equal the depth-first one."""
    fallbacks = _assert_matches_reference(_lattice(ints, step, base))
    assert "flat" in fallbacks
    if step == ULP_STEP:
        assert fallbacks == {"flat", "sorted"}


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (500, 3), (300, 5), (200, 7)])
def test_build_matches_reference(n, d):
    _assert_matches_reference(_pts(n, d, seed=n + d))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=80),
    d=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=4),
    ulp=st.booleans(),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_build_matches_reference_hypothesis(n, d, k, ulp, seed):
    """Small integer lattices with many duplicates, spaced by 1 or by one
    float ulp, so that both fallbacks run below the root."""
    ints = np.random.default_rng(seed).integers(0, k, (n, d))
    step, base = (ULP_STEP, ULP_BASE) if ulp else (1.0, 0.0)
    _assert_matches_reference(_lattice(ints, step, base))


def test_mutually_unreachable_needs_core_distances():
    t = kdt.build(_pts(20, 2))
    with pytest.raises(ValueError, match="attach_core_distances"):
        t.mutually_unreachable(1, 2)
