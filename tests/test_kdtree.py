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


def _pts(n, d, seed=0, scale=10.0):
    return np.random.default_rng(seed).random((n, d)) * scale


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
        assert np.allclose(t.bb_min[v], seg.min(axis=0))
        assert np.allclose(t.bb_max[v], seg.max(axis=0))


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


def test_duplicate_points_build():
    pts = np.zeros((64, 3))
    t = kdt.build(pts)
    assert np.all((t.hi - t.lo)[t.left < 0] == 1)
    assert np.allclose(t.radius, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_rejects_non_finite_points(bad):
    pts = _pts(30, 2)
    pts[3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
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
        assert np.isclose(t.cd_min[v], seg.min())
        assert np.isclose(t.cd_max[v], seg.max())


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
