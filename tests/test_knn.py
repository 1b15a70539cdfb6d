"""k-NN / core-distance correctness, including the DuckDB oracle check
required for every query-result test (core distance is the k-th
smallest pairwise distance — a window query DuckDB can verify)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances, knn_one
from repro.oracle import assert_equivalent

DIMS = [1, 2, 3, 5]


def _pts(n, d, seed=0):
    return np.random.default_rng(seed).random((n, d)) * 20


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_knn_one_vs_bruteforce(d, k):
    pts = _pts(200, d, seed=d)
    tree = kdt.build(pts.copy(), leaf_size=8)
    rng = np.random.default_rng(1)
    for i in rng.integers(0, 200, 20):
        got = knn_one(tree, pts[i], k)
        ref = np.sort(np.linalg.norm(pts - pts[i], axis=1))[:k]
        assert np.allclose(got, ref)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("min_pts", [1, 3, 10])
def test_core_distances_vs_bruteforce(d, min_pts):
    pts = _pts(300, d, seed=d + 10)
    cd = core_distances(pts, min_pts)
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    ref = np.sort(dists, axis=1)[:, min_pts - 1]
    assert np.allclose(cd, ref)


def test_core_distance_of_point_itself_min_pts_1():
    pts = _pts(50, 2)
    assert np.allclose(core_distances(pts, 1), 0.0)


@pytest.mark.parametrize("min_pts", [2, 5, 10])
def test_core_distances_duckdb_oracle(spark, min_pts):
    """cd(p) must equal the minPts-th smallest pairwise distance
    (including the self-distance 0) — checked relationally in DuckDB."""
    pts = _pts(150, 3, seed=min_pts)
    cd = core_distances(pts, min_pts)
    pdf = sd.points_pdf(pts)
    got = spark.createDataFrame(
        sd.points_pdf(pts)[["id"]].assign(cd=np.round(cd, 9))
    )
    sql = f"""
        SELECT a.id AS id,
               round(
                 (SELECT sqrt((a.x0-b.x0)*(a.x0-b.x0)
                             +(a.x1-b.x1)*(a.x1-b.x1)
                             +(a.x2-b.x2)*(a.x2-b.x2))
                  FROM pts b
                  ORDER BY 1
                  LIMIT 1 OFFSET {min_pts - 1}), 9) AS cd
        FROM pts a
    """
    assert_equivalent(got, sql, pts=pdf)


def test_knn_duplicate_points():
    pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    tree = kdt.build(pts.copy(), leaf_size=1)
    got = knn_one(tree, np.zeros(2), 5)
    assert np.allclose(got, 0.0)


def test_min_pts_too_large_raises():
    with pytest.raises(ValueError):
        core_distances(_pts(5, 2), 10)


@pytest.mark.parametrize("min_pts", [0, -1])
def test_min_pts_below_1_raises(min_pts):
    with pytest.raises(ValueError, match="minPts"):
        core_distances(_pts(5, 2), min_pts)
