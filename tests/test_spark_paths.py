"""Spark-parallel paths must produce the same results as the sequential
implementations — the reproduction's '48 cores' configuration is only
valid if it computes the identical MSTs/dendrograms.

Below their break-evens the fan-outs run on the driver, so each
equality test sets the break-even constants to 0 (``forced``) and checks
through ``statusTracker`` that Spark jobs ran, one stage each."""
import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.bccp import bccp_batch
from repro.core.dendrogram import dendrogram_sequential, dendrogram_topdown
from repro.core.emst import emst_gfk, emst_memogfk, emst_naive
from repro.core.hdbscan import core_distances, hdbscan_mst
from repro.engine import distribute
from repro.engine.distribute import SparkBccp, core_distances_spark
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances as cd_seq
from tests.test_dendrogram import assert_same_dendrogram


@pytest.fixture(scope="module")
def midsize():
    return sd.uniform_fill(2000, 3, seed=55)


@pytest.fixture
def forced(monkeypatch):
    """Every fan-out runs in Spark, however small its work."""
    for name in ("_MIN_PARALLEL_CELLS", "_MIN_PARALLEL_POINTS", "_MIN_PARALLEL_EDGES"):
        monkeypatch.setattr(distribute, name, 0)


_groups = itertools.count()


@contextmanager
def spark_jobs(spark):
    """Yields a list that receives the ids of the Spark jobs run inside
    the block; each fan-out must be one single-stage job."""
    sc = spark.sparkContext
    group = f"test-spark-paths-{next(_groups)}"
    sc.setJobGroup(group, group)
    jobs = []
    try:
        yield jobs
    finally:
        sc.setJobGroup("", "")
    tracker = sc.statusTracker()
    jobs.extend(tracker.getJobIdsForGroup(group))
    for job in jobs:
        assert len(tracker.getJobInfo(job).stageIds) == 1, job


@pytest.mark.parametrize(
    "fn", [emst_naive, emst_gfk, emst_memogfk], ids=["naive", "gfk", "memogfk"]
)
def test_emst_spark_equals_sequential(spark, forced, midsize, fn):
    e_seq, _ = fn(midsize)
    with spark_jobs(spark) as jobs:
        e_par, _ = fn(midsize, spark=spark)
    assert jobs
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))
    assert np.isclose(e_seq[:, 2].sum(), e_par[:, 2].sum())


def test_core_distances_spark_equals_sequential(spark, forced):
    tree = kdt.build(sd.ss_varden(6000, 3, seed=5))
    for min_pts in (1, 10):
        with spark_jobs(spark) as jobs:
            got = core_distances_spark(spark, tree, min_pts)
        assert len(jobs) == 1
        assert np.array_equal(got, cd_seq(tree, min_pts))


def test_core_distances_spark_rejects_min_pts_below_1(spark):
    tree = kdt.build(sd.uniform_fill(100, 2, seed=3))
    for min_pts in (0, -1):
        with pytest.raises(ValueError, match="minPts"):
            core_distances_spark(spark, tree, min_pts)


def test_core_distances_dispatch(spark):
    tree = kdt.build(sd.uniform_fill(500, 2, seed=3))  # below the break-even: driver path
    with spark_jobs(spark) as jobs:
        got = core_distances(tree, 5, spark=spark)
    assert not jobs
    assert np.array_equal(got, cd_seq(tree, 5))


@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_hdbscan_spark_equals_sequential(spark, forced, midsize, method):
    e_seq, cd1, _ = hdbscan_mst(midsize, 10, method=method)
    with spark_jobs(spark) as jobs:
        e_par, cd2, _ = hdbscan_mst(midsize, 10, method=method, spark=spark)
    assert len(jobs) >= 2  # k-NN and BCCP* batches
    assert np.array_equal(cd1, cd2)
    assert np.allclose(np.sort(e_seq[:, 2]), np.sort(e_par[:, 2]))


def test_spark_bccp_many_matches_local(spark, forced, midsize):
    """The Spark BCCP fan-out must agree with the driver kernel,
    pair by pair, for both metrics."""
    from repro.core import bccp as bccp_mod
    from repro.core.wspd import wspd

    tree = kdt.build(midsize)
    kdt.attach_core_distances(tree, cd_seq(tree, 10))
    pairs = wspd(tree, "s2")[:3000]
    ctx = SparkBccp(spark, tree)
    for star in (False, True):
        with spark_jobs(spark) as jobs:
            got = ctx.bccp_many(pairs, star=star)
        assert len(jobs) == 1
        fn = bccp_mod.bccp_star if star else bccp_mod.bccp
        for k in range(0, len(pairs), max(1, len(pairs) // 200)):
            u, v, w = fn(tree, *map(int, pairs[k]))
            gu, gv, gw = got[k]
            assert np.isclose(gw, w)


@pytest.fixture(scope="module")
def varden_mst():
    edges, _ = emst_memogfk(sd.ss_varden(4000, 2, seed=12))
    return edges


def test_dendrogram_spark_equals_driver(spark, forced, varden_mst, monkeypatch):
    """The bands go out in one job with one task per group (as many
    groups as bands, up to the executor cores), and the arrays come back
    equal to the bottom-up ones."""
    dealt = []
    run = distribute.run_payloads_spark

    def recording(spark, bands):
        dealt.append(len(bands))
        return run(spark, bands)

    monkeypatch.setattr(distribute, "run_payloads_spark", recording)
    edges = varden_mst
    d_seq = dendrogram_sequential(edges, 0)
    with spark_jobs(spark) as jobs:
        d_par = dendrogram_topdown(edges, 0, spark=spark)
    assert len(jobs) == 1 and len(dealt) == 1 and dealt[0] >= 2
    tracker = spark.sparkContext.statusTracker()
    (stage,) = tracker.getJobInfo(jobs[0]).stageIds
    groups = min(dealt[0], spark.sparkContext.defaultParallelism)
    assert tracker.getStageInfo(stage).numTasks == groups
    assert_same_dendrogram(d_par, d_seq)
    from repro.graph.prim import is_valid_prim_order

    assert is_valid_prim_order(4000, edges, *d_par.reachability())


def test_dendrogram_spark_bit_identical_to_topdown(spark, forced, varden_mst):
    """Executors and the driver solve the same bands with the same
    kernel, and node ids are edge ranks, so every array matches, also
    the bottom-up construction's, ties included."""
    tied = hdbscan_mst(sd.ss_varden(3000, 3, seed=4), 10)[0]
    for edges in (varden_mst, tied):
        d_drv = dendrogram_topdown(edges, 0)
        with spark_jobs(spark) as jobs:
            d_par = dendrogram_topdown(edges, 0, spark=spark)
        assert len(jobs) == 1
        assert_same_dendrogram(d_par, d_drv)
        assert_same_dendrogram(d_par, dendrogram_sequential(edges, 0))


def test_spark_bccp_small_batch_runs_on_driver(spark, midsize):
    """Tiny batches short-circuit to the driver (granularity control);
    results must be identical either way."""
    tree = kdt.build(midsize[:200])
    ctx = SparkBccp(spark, tree)
    internal = np.flatnonzero(tree.left >= 0)
    pairs = [
        (int(tree.left[v]), int(tree.right[v])) for v in internal[:5]
    ]
    with spark_jobs(spark) as jobs:
        got = ctx.bccp_many(pairs)
    assert not jobs
    from repro.core.bccp import bccp

    for k, p in enumerate(pairs):
        assert np.isclose(got[k, 2], bccp(tree, *p)[2])


def test_spark_bccp_largest_pair_is_not_spread(spark, monkeypatch, midsize):
    """A batch fans out only when its cells outside the largest pair
    (which one executor takes whole) reach the break-even."""
    tree = kdt.build(midsize)
    internal = np.flatnonzero(tree.left >= 0)[:5]
    pairs = np.column_stack([tree.left[internal], tree.right[internal]])
    sz = tree.hi - tree.lo
    cells = sz[pairs[:, 0]] * sz[pairs[:, 1]]
    spread = int(cells.sum() - cells.max())
    ctx = SparkBccp(spark, tree)
    want = bccp_batch(tree, pairs[:, 0], pairs[:, 1])
    for threshold, n_jobs in ((spread + 1, 0), (spread, 1)):
        monkeypatch.setattr(distribute, "_MIN_PARALLEL_CELLS", threshold)
        with spark_jobs(spark) as jobs:
            got = ctx.bccp_many(pairs)
        assert len(jobs) == n_jobs
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n, parts", [(37, 4), (37, 64), (3, 8), (1, 4), (0, 4)])
def test_deal_makes_balanced_groups(n, parts):
    """Every index lands in exactly one of min(n, parts) groups, and no
    two group totals differ by more than the largest weight."""
    w = np.random.default_rng(n).integers(1, 1000, n)
    groups = distribute._deal(w, parts)
    assert len(groups) == min(n, parts)
    assert np.array_equal(np.sort(np.concatenate(groups + [np.empty(0, int)])), np.arange(n))
    if n:
        totals = [int(w[g].sum()) for g in groups]
        assert max(totals) - min(totals) <= w.max()


def test_fan_out_is_one_task_per_group_in_group_order(spark):
    """Any picklable result comes back, in group order, from one
    single-stage job with one task per group."""
    groups = [[3, 1], [], [4, 1, 5], ["a"]][: spark.sparkContext.defaultParallelism]
    with spark_jobs(spark) as jobs:
        got = distribute._fan_out(spark, groups, lambda g: {"items": g, "size": len(g)})
    assert got == [{"items": g, "size": len(g)} for g in groups]
    assert len(jobs) == 1
    tracker = spark.sparkContext.statusTracker()
    (stage,) = tracker.getJobInfo(jobs[0]).stageIds
    assert tracker.getStageInfo(stage).numTasks == len(groups)


@pytest.fixture
def broadcasts(spark, monkeypatch):
    """Records every broadcast made, and every one unpersisted, as
    (made, dropped) lists."""
    from pyspark import Broadcast

    sc = spark.sparkContext
    made, dropped = [], []
    broadcast, unpersist = sc.broadcast, Broadcast.unpersist

    def recording_broadcast(value):
        made.append(broadcast(value))
        return made[-1]

    def recording_unpersist(self, blocking=False):
        dropped.append(self)
        unpersist(self, blocking)

    monkeypatch.setattr(sc, "broadcast", recording_broadcast)
    monkeypatch.setattr(Broadcast, "unpersist", recording_unpersist)
    return made, dropped


def all_unpersisted(made, dropped) -> bool:
    return all(any(b is d for d in dropped) for b in made)


@pytest.mark.parametrize(
    "solve",
    [emst_naive, emst_gfk, emst_memogfk, lambda pts, spark: hdbscan_mst(pts, 10, spark=spark)],
    ids=["naive", "gfk", "memogfk", "hdbscan"],
)
def test_failed_fan_out_still_unpersists_the_tree(
    spark, forced, midsize, monkeypatch, broadcasts, solve
):
    """``bccp_batch`` raises inside the executors: the run raises, and
    every broadcast it made has been unpersisted."""

    def failing_bccp_batch(*args):
        raise RuntimeError("bccp_batch failed on purpose")

    monkeypatch.setattr(distribute, "bccp_batch", failing_bccp_batch)
    with pytest.raises(Exception, match="bccp_batch failed on purpose"):
        solve(midsize, spark=spark)
    made, dropped = broadcasts
    assert made
    assert all_unpersisted(made, dropped)


def test_fan_outs_unpersist_the_tree_when_they_return(spark, forced, midsize, broadcasts):
    """Once a forced ``SparkBccp.bccp_many`` or ``core_distances_spark``
    returns, every broadcast it made has been unpersisted: no call keeps
    the tree on the executors after its own job."""
    tree = kdt.build(midsize)
    kdt.attach_core_distances(tree, cd_seq(tree, 10))
    internal = np.flatnonzero(tree.left >= 0)[:50]
    pairs = np.column_stack([tree.left[internal], tree.right[internal]])
    made, dropped = broadcasts
    for call in (
        lambda: SparkBccp(spark, tree).bccp_many(pairs, star=True),
        lambda: core_distances_spark(spark, tree, 10),
    ):
        made.clear()
        dropped.clear()
        call()
        assert len(made) == 1
        assert all_unpersisted(made, dropped)


def test_hdbscan_pipeline_below_break_even_runs_on_driver(spark):
    """At 2500 GeoLife-like points every fan-out is below its break-even:
    the session runs no job and the results are bit-identical."""
    pts = sd.geolife_like(2500, seed=1)
    e_seq, cd_seq_, _ = hdbscan_mst(pts, 10)
    d_seq = dendrogram_topdown(e_seq, 0)
    with spark_jobs(spark) as jobs:
        e_par, cd_par, _ = hdbscan_mst(pts, 10, spark=spark)
        d_par = dendrogram_topdown(e_par, 0, spark=spark)
    assert not jobs
    assert np.array_equal(cd_seq_, cd_par)
    assert np.array_equal(e_seq, e_par)
    assert_same_dendrogram(d_par, d_seq)
