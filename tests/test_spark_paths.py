"""Spark-parallel paths must produce the same results as the sequential
implementations — the reproduction's '48 cores' configuration is only
valid if it computes the identical MSTs/dendrograms."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.dendrogram import dendrogram_sequential, dendrogram_topdown
from repro.core.emst import emst_gfk, emst_memogfk, emst_naive
from repro.core.hdbscan import core_distances, hdbscan_mst
from repro.engine.distribute import SparkBccp, core_distances_spark
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances as cd_seq


@pytest.fixture(scope="module")
def midsize():
    return sd.uniform_fill(2000, 3, seed=55)


@pytest.mark.parametrize(
    "fn", [emst_naive, emst_gfk, emst_memogfk], ids=["naive", "gfk", "memogfk"]
)
def test_emst_spark_equals_sequential(spark, midsize, fn):
    e_seq, _ = fn(midsize)
    e_par, _ = fn(midsize, spark=spark)
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))
    assert np.isclose(e_seq[:, 2].sum(), e_par[:, 2].sum())


def test_core_distances_spark_equals_sequential(spark):
    pts = sd.ss_varden(6000, 3, seed=5)  # above the driver-side cutoff
    got = core_distances_spark(spark, pts, 10)
    assert np.allclose(got, cd_seq(pts, 10))


def test_core_distances_spark_rejects_min_pts_below_1(spark):
    pts = sd.uniform_fill(100, 2, seed=3)
    for min_pts in (0, -1):
        with pytest.raises(ValueError, match="minPts"):
            core_distances_spark(spark, pts, min_pts)


def test_core_distances_dispatch(spark):
    pts = sd.uniform_fill(500, 2, seed=3)  # below cutoff: driver path
    assert np.allclose(core_distances(pts, 5, spark=spark), cd_seq(pts, 5))


@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_hdbscan_spark_equals_sequential(spark, midsize, method):
    e_seq, cd1, _ = hdbscan_mst(midsize, 10, method=method)
    e_par, cd2, _ = hdbscan_mst(midsize, 10, method=method, spark=spark)
    assert np.allclose(cd1, cd2)
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))


def test_spark_bccp_many_matches_local(spark, midsize):
    """The mapInPandas BCCP kernel must agree with the driver kernel,
    pair by pair, for both metrics."""
    from repro.core import bccp as bccp_mod
    from repro.core.wspd import wspd

    cd = cd_seq(midsize, 10)
    tree = kdt.build(midsize, leaf_size=1)
    kdt.attach_core_distances(tree, cd)
    pairs = wspd(tree, "s2")[:3000]
    ctx = SparkBccp(spark, tree)
    try:
        for star in (False, True):
            got = ctx.bccp_many(pairs, star=star)
            fn = bccp_mod.bccp_star if star else bccp_mod.bccp
            for k in range(0, len(pairs), max(1, len(pairs) // 200)):
                u, v, w = fn(tree, *map(int, pairs[k]))
                gu, gv, gw = got[k]
                assert np.isclose(gw, w)
    finally:
        ctx.unpersist()


@pytest.fixture(scope="module")
def varden_mst():
    edges, _ = emst_memogfk(sd.ss_varden(4000, 2, seed=12))
    return edges


def test_dendrogram_spark_equals_driver(spark, varden_mst):
    edges = varden_mst
    d_seq = dendrogram_sequential(edges, 0)
    d_par = dendrogram_topdown(edges, 0, spark=spark)
    o1, b1 = d_seq.reachability()
    o2, b2 = d_par.reachability()
    from repro.graph.prim import is_valid_prim_order

    assert is_valid_prim_order(4000, edges, o2, b2)
    assert np.allclose(np.sort(b1[1:]), np.sort(b2[1:]))
    # EMST weights are generically distinct -> orders must agree exactly.
    assert np.array_equal(o1, o2)


def test_dendrogram_spark_bit_identical_to_topdown(spark, varden_mst):
    """Executors solve the light subproblems with the node ids the
    driver-side recursion would assign, so every array matches."""
    d_drv = dendrogram_topdown(varden_mst, 0)
    d_par = dendrogram_topdown(varden_mst, 0, spark=spark)
    assert d_par.root == d_drv.root
    for name in ("left", "right", "weight"):
        assert np.array_equal(getattr(d_par, name), getattr(d_drv, name)), name


def test_spark_bccp_small_batch_runs_on_driver(spark, midsize):
    """Tiny batches short-circuit to the driver (granularity control);
    results must be identical either way."""
    tree = kdt.build(midsize[:200], leaf_size=1)
    ctx = SparkBccp(spark, tree)
    try:
        internal = np.flatnonzero(tree.left >= 0)
        pairs = [
            (int(tree.left[v]), int(tree.right[v])) for v in internal[:5]
        ]
        got = ctx.bccp_many(pairs)
        from repro.core.bccp import bccp

        for k, p in enumerate(pairs):
            assert np.isclose(got[k, 2], bccp(tree, *p)[2])
    finally:
        ctx.unpersist()
