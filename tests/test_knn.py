"""k-NN / core-distance correctness, including the DuckDB oracle check
required for every query-result test (core distance is the k-th
smallest pairwise distance — a window query DuckDB can verify)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.geometry import kdtree as kdt
from repro.geometry import knn
from repro.geometry.knn import core_distances
from repro.oracle import assert_equivalent

DIMS = [1, 2, 3, 5]


def _pts(n, d, seed=0):
    return np.random.default_rng(seed).random((n, d)) * 20


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_knn_one_vs_bruteforce(monkeypatch, d, k):
    """Query by query, the block kernel's k-th distance is the k-th of
    the sorted brute-force distances."""
    monkeypatch.setattr(knn, "_BLOCK", 8)
    pts = _pts(200, d, seed=d)
    tree = kdt.build(pts)
    got = np.empty(200)
    got[tree.perm] = knn.block_kth_distances(tree, knn.blocks(tree), k)
    rng = np.random.default_rng(1)
    for i in rng.integers(0, 200, 20):
        ref = np.sort(np.linalg.norm(pts - pts[i], axis=1))[:k]
        assert np.isclose(got[i], ref[-1])


def _bruteforce(pts, k):
    """Dense k-th distances with the kernel's own squared-distance sum."""
    diff = pts[None] - pts[:, None]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    return np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])


def _cd(pts, k):
    return core_distances(kdt.build(pts), k)


def _min_pts(pts, min_pts):
    return pts.shape[0] if min_pts == "n" else min_pts


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7])
@pytest.mark.parametrize("min_pts", [1, 2, 10, "n"])
@pytest.mark.parametrize("block", [1, 16])
def test_core_distances_bit_identical_to_bruteforce(monkeypatch, d, min_pts, block):
    monkeypatch.setattr(knn, "_BLOCK", block)
    pts = _pts(200, d, seed=d)
    k = _min_pts(pts, min_pts)
    assert np.array_equal(_cd(pts, k), _bruteforce(pts, k))


DEGENERATE = {
    "identical": np.full((60, 3), 2.5),
    "dup5x": np.repeat(_pts(40, 2, seed=4), 5, axis=0),
    "collinear": np.linspace(0.0, 1.0, 150)[:, None] * [1.0, 2.0, -3.0] + 0.5,
    "shift1e9": _pts(150, 2, seed=5) + 1e9,
}


@pytest.mark.parametrize("name", DEGENERATE)
@pytest.mark.parametrize("min_pts", [1, 2, 5, 10, "n"])
@pytest.mark.parametrize("block", [1, 16])
def test_core_distances_degenerate_inputs(monkeypatch, name, min_pts, block):
    monkeypatch.setattr(knn, "_BLOCK", block)
    pts = DEGENERATE[name]
    k = _min_pts(pts, min_pts)
    assert np.array_equal(_cd(pts, k), _bruteforce(pts, k))


@pytest.mark.parametrize("chunk_cells", [1, 300])
def test_core_distances_chunk_boundaries(monkeypatch, chunk_cells):
    """One and a few query blocks per chunk of box distances."""
    monkeypatch.setattr(knn, "_CHUNK_CELLS", chunk_cells)
    monkeypatch.setattr(knn, "_BLOCK", 4)
    pts = _pts(300, 3, seed=8)
    assert np.array_equal(_cd(pts, 10), _bruteforce(pts, 10))


def test_leaf_ranges_tile_the_full_run(monkeypatch):
    """Executors solve contiguous block ranges; their concatenation must
    equal one run over all blocks."""
    monkeypatch.setattr(knn, "_BLOCK", 8)
    tree = kdt.build(_pts(400, 2, seed=9))
    every = knn.blocks(tree)
    assert np.array_equal(tree.lo[every[1:]], tree.hi[every[:-1]])
    full = knn.block_kth_distances(tree, every, 7)
    cuts = [0, 1, 13, every.size // 2, every.size]
    parts = [knn.block_kth_distances(tree, every[a:z], 7) for a, z in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts), full)


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("min_pts", [1, 3, 10])
def test_core_distances_vs_bruteforce(d, min_pts):
    pts = _pts(300, d, seed=d + 10)
    cd = _cd(pts, min_pts)
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    ref = np.sort(dists, axis=1)[:, min_pts - 1]
    assert np.allclose(cd, ref)


def test_core_distance_of_point_itself_min_pts_1():
    pts = _pts(50, 2)
    assert np.allclose(_cd(pts, 1), 0.0)


@pytest.mark.parametrize("min_pts", [2, 5, 10])
def test_core_distances_duckdb_oracle(spark, min_pts):
    """cd(p) must equal the minPts-th smallest pairwise distance
    (including the self-distance 0) — checked relationally in DuckDB."""
    pts = _pts(150, 3, seed=min_pts)
    cd = _cd(pts, min_pts)
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


def test_knn_duplicate_points(monkeypatch):
    monkeypatch.setattr(knn, "_BLOCK", 1)
    pts = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    assert np.array_equal(_cd(pts, 5), np.zeros(10))


def test_min_pts_too_large_raises():
    with pytest.raises(ValueError):
        _cd(_pts(5, 2), 10)


@pytest.mark.parametrize("min_pts", [0, -1])
def test_min_pts_below_1_raises(min_pts):
    with pytest.raises(ValueError, match="minPts"):
        _cd(_pts(5, 2), min_pts)
