"""WSPD correctness: the decomposition must cover every unordered point
pair exactly once (realization properties (3)+(4) of Section 2.3) —
checked relationally against a DuckDB cross join via the oracle."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core.wspd import (
    PairBudgetExceeded,
    pair_point_count,
    separation_predicate,
    v_center_dist,
    v_gap,
    v_well_separated,
    wspd,
)
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances
from repro.oracle import assert_equivalent

DIMS = [1, 2, 3, 5]
SIZES = [2, 3, 10, 64, 300]


def _tree(n, d, seed=0):
    pts = np.random.default_rng(seed).random((n, d)) * 15
    return kdt.build(pts)


def _covered_pairs(tree, pairs) -> pd.DataFrame:
    """Explode every WSPD pair into the unordered point-id pairs it
    covers (i < j)."""
    rows_i, rows_j = [], []
    for a, b in pairs:
        A = tree.points_of(int(a))
        B = tree.points_of(int(b))
        i = np.repeat(A, B.size)
        j = np.tile(B, A.size)
        lo = np.minimum(i, j)
        hi = np.maximum(i, j)
        rows_i.append(lo)
        rows_j.append(hi)
    return pd.DataFrame(
        {"i": np.concatenate(rows_i), "j": np.concatenate(rows_j)}
    )


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_wspd_exact_cover(spark, n, d):
    tree = _tree(n, d, seed=n + d)
    pairs = wspd(tree, "s2")
    covered = _covered_pairs(tree, pairs)
    # Exactly-once: no duplicates, and the set equals the full cross join.
    assert not covered.duplicated().any()
    got = spark.createDataFrame(covered)
    sql = "SELECT a.id AS i, b.id AS j FROM pts a JOIN pts b ON a.id < b.id"
    assert_equivalent(got, sql, pts=sd.points_pdf(tree.pts))


@pytest.mark.parametrize("n", [100, 500, 2000])
def test_wspd_linear_size(n):
    """O(n) pairs with a dimension-dependent constant (2D, s=2)."""
    tree = _tree(n, 2, seed=n)
    pairs = wspd(tree, "s2")
    assert pairs.shape[0] <= 40 * n


@pytest.mark.parametrize("d", [2, 3])
def test_pairs_actually_well_separated(d):
    tree = _tree(200, d, seed=d)
    pairs = wspd(tree, "s2")
    A, B = pairs[:, 0], pairs[:, 1]
    ok = v_well_separated(tree, A, B, "s2", v_center_dist(tree, A, B))
    # Only coincident-singleton fallbacks may violate the predicate;
    # with random data there are none.
    assert ok.all()


def test_vectorized_matches_scalar_predicate():
    tree = _tree(150, 3, seed=5)
    pred = separation_predicate(tree, "s2")
    rng = np.random.default_rng(0)
    A = rng.integers(0, tree.n_nodes, 200)
    B = rng.integers(0, tree.n_nodes, 200)
    vec = v_well_separated(tree, A, B, "s2", v_center_dist(tree, A, B))
    for a, b, v in zip(A, B, vec):
        assert pred(int(a), int(b)) == bool(v)


@pytest.mark.parametrize("min_pts", [5, 10])
def test_hdbscan_separation_is_superset_and_smaller(min_pts):
    """The new definition is a disjunction including geometric
    separation, so (a) every s2-separated pair stays separated, and (b)
    the WSPD it yields is no larger (Section 3.2.2's space claim)."""
    pts = sd.ss_varden(600, 3, seed=3)
    tree = kdt.build(pts)
    kdt.attach_core_distances(tree, core_distances(tree, min_pts))
    p_std = wspd(tree, "s2")
    p_new = wspd(tree, "hdbscan")
    assert p_new.shape[0] <= p_std.shape[0]
    # Geometric separation (s=2 in sphere terms) implies new-definition
    # separation on the same node pair.
    A, B = p_std[:, 0], p_std[:, 1]
    geo = v_well_separated(tree, A, B, "hdbscan", v_center_dist(tree, A, B))
    gap = v_gap(tree, A, B, v_center_dist(tree, A, B))
    diam = 2.0 * np.maximum(tree.radius[p_std[:, 0]], tree.radius[p_std[:, 1]])
    assert np.all(geo[gap >= diam])


def test_separation_constant_monotonicity():
    """Larger s => finer decomposition => more pairs (OPTICS uses s=8)."""
    tree = _tree(300, 2, seed=8)
    n2 = wspd(tree, 2.0).shape[0]
    n8 = wspd(tree, 8.0).shape[0]
    assert n8 > n2


def test_pair_budget_raises():
    tree = _tree(500, 2, seed=9)
    with pytest.raises(PairBudgetExceeded):
        wspd(tree, "s2", max_pairs=10)


def test_pair_helpers():
    tree = _tree(120, 3, seed=10)
    pairs = wspd(tree, "s2")
    card = pair_point_count(tree, pairs)
    sz = tree.hi - tree.lo
    assert np.array_equal(card, sz[pairs[:, 0]] + sz[pairs[:, 1]])
    A, B = pairs[:, 0], pairs[:, 1]
    nd = v_gap(tree, A, B, v_center_dist(tree, A, B))
    assert (nd >= 0).all()
    for k in range(0, pairs.shape[0], max(1, pairs.shape[0] // 20)):
        a, b = map(int, pairs[k])
        assert np.isclose(nd[k], tree.node_dist(a, b))


def test_duplicate_points_recorded_as_pairs():
    pts = np.zeros((8, 2))
    tree = kdt.build(pts)
    pairs = wspd(tree, "s2")
    covered = _covered_pairs(tree, pairs)
    assert len(covered.drop_duplicates()) == 8 * 7 // 2


@pytest.mark.parametrize(
    "pts",
    [
        np.zeros((40, 3)),
        np.repeat(np.random.default_rng(11).random((30, 2)), 5, axis=0),
        np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)), -1).reshape(-1, 2)
        + 1e9,
    ],
    ids=["identical", "duplicates-5x", "lattice-1e9"],
)
def test_zero_radius_pairs_are_well_separated(pts):
    """FINDPAIR never splits a leaf: the larger side of a pair is a leaf
    only when both radii are 0, and every such pair is well-separated
    under each predicate (c >= s * 0, and gap = c >= 0 = diam)."""
    tree = kdt.build(pts)
    kdt.attach_core_distances(tree, core_distances(tree, 4))
    zero = np.flatnonzero(tree.radius == 0.0)
    assert zero.size >= pts.shape[0]  # every leaf has radius 0
    A, B = (g.ravel() for g in np.meshgrid(zero, zero))
    c = v_center_dist(tree, A, B)
    for kind in ("s2", 8.0, "hdbscan"):
        assert v_well_separated(tree, A, B, kind, c).all(), kind
