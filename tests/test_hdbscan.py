"""HDBSCAN* MST correctness (Theorem 3.2): both the exact GanTao
baseline and the new-well-separation MemoGFK method must produce an MST
of the mutual reachability graph, verified against a dense Prim oracle;
DBSCAN* extraction at any eps must match a brute-force DBSCAN*."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.hdbscan import (
    dbscan_star_from_mst,
    hdbscan_mst,
    mutual_reachability_bruteforce,
    wspd_pair_counts,
)
from repro.core.optics import optics_approx_mst
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances
from repro.graph.prim import mst_bruteforce, mst_bruteforce_mutual
from tests.test_kdtree import HUGE, TINY, rejection, spoil
from tests.unionfind import UnionFind

CASES = [
    ("uniform", 60, 2, 3),
    ("uniform", 200, 2, 10),
    ("uniform", 200, 3, 10),
    ("uniform", 500, 3, 10),
    ("uniform", 200, 5, 10),
    ("uniform", 120, 7, 10),
    ("varden", 200, 2, 10),
    ("varden", 500, 3, 10),
    ("varden", 200, 5, 5),
    ("varden", 300, 3, 25),
]


def _dataset(dist, n, d, seed):
    if dist == "uniform":
        return sd.uniform_fill(n, d, seed=seed)
    return sd.ss_varden(n, d, seed=seed)


@pytest.mark.parametrize("method", ["memogfk", "gantao"])
@pytest.mark.parametrize("dist,n,d,mp", CASES)
def test_hdbscan_mst_matches_prim(method, dist, n, d, mp):
    pts = _dataset(dist, n, d, seed=n + d + mp)
    cd = core_distances(kdt.build(pts), mp)
    ref = np.sort(mst_bruteforce_mutual(pts, cd)[:, 2])
    edges, cd_out, _ = hdbscan_mst(pts, mp, method=method)
    assert np.allclose(cd_out, cd)
    assert edges.shape == (n - 1, 3)
    assert np.allclose(np.sort(edges[:, 2]), ref)


@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_min_pts_1_equals_emst(method):
    """With minPts = 1, mutual reachability distance is Euclidean
    distance, so the HDBSCAN* MST is the EMST (Section 2.1)."""
    pts = sd.uniform_fill(300, 3, seed=1)
    ref = np.sort(mst_bruteforce(pts)[:, 2])
    edges, cd, _ = hdbscan_mst(pts, 1, method=method)
    assert np.allclose(cd, 0.0)
    assert np.allclose(np.sort(edges[:, 2]), ref)


@pytest.mark.parametrize("mp", [2, 3])
def test_emst_weight_valid_for_small_min_pts(mp):
    """Theorem D.1: for minPts <= 3 the EMST is an MST of the mutual
    reachability graph — so both have the same total weight under d_m."""
    pts = sd.uniform_fill(250, 2, seed=mp)
    cd = core_distances(kdt.build(pts), mp)
    emst = mst_bruteforce(pts)
    w_emst = sum(
        max(w, cd[int(u)], cd[int(v)]) for u, v, w in emst
    )
    ref = mst_bruteforce_mutual(pts, cd)[:, 2].sum()
    assert np.isclose(w_emst, ref)


def test_edge_weights_are_mutual_reachability():
    """Every reported MST edge weight must equal d_m of its endpoints."""
    pts = sd.ss_varden(400, 3, seed=9)
    edges, cd, _ = hdbscan_mst(pts, 10, method="memogfk")
    for u, v, w in edges:
        u, v = int(u), int(v)
        d = np.linalg.norm(pts[u] - pts[v])
        assert np.isclose(w, max(d, cd[u], cd[v]))


@pytest.mark.parametrize("mp", [5, 10, 20])
def test_new_definition_fewer_pairs(mp):
    """Section 3.2.2's space claim at reproduction scale."""
    pts = sd.ss_varden(1500, 3, seed=mp)
    counts = wspd_pair_counts(pts, mp)
    assert counts["hdbscan"] < counts["s2"]


def _dbscan_star_bruteforce(pts, mp, eps):
    n = pts.shape[0]
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    core = (d <= eps).sum(axis=1) >= mp  # includes self
    uf = UnionFind(n)
    for i in range(n):
        if not core[i]:
            continue
        for j in range(i + 1, n):
            if core[j] and d[i, j] <= eps:
                uf.union(i, j)
    lab = np.array([uf.find(v) for v in range(n)])
    out = np.full(n, -1, dtype=np.int64)
    roots = {int(r): k for k, r in enumerate(np.unique(lab[core]))}
    for i in range(n):
        if core[i]:
            out[i] = roots[int(lab[i])]
    return out


@pytest.mark.parametrize("eps_q", [0.1, 0.4, 0.7, 0.95])
@pytest.mark.parametrize("mp", [3, 10])
def test_dbscan_star_extraction_matches_bruteforce(eps_q, mp):
    """Cutting the HDBSCAN* hierarchy at eps = the DBSCAN* clustering at
    eps (Section 2.1) — compared as label partitions."""
    pts = sd.ss_varden(300, 2, seed=int(eps_q * 10) + mp)
    edges, cd, _ = hdbscan_mst(pts, mp, method="memogfk")
    eps = float(np.quantile(edges[:, 2], eps_q))
    got = dbscan_star_from_mst(edges, cd, eps)
    ref = _dbscan_star_bruteforce(pts, mp, eps)
    assert np.array_equal(got == -1, ref == -1)  # same noise set
    # Same partition: cluster ids may differ, co-membership must not.
    mask = got >= 0
    ga, gb = got[mask], ref[mask]
    import pandas as pd

    m = pd.DataFrame({"a": ga, "b": gb}).drop_duplicates()
    assert m["a"].is_unique and m["b"].is_unique  # bijection of labels


@pytest.mark.parametrize("eps_q", [0.2, 0.6, 0.9])
def test_dbscan_star_labels_ignore_row_order(eps_q):
    """Clusters are numbered in the order of their smallest member, so
    permuting the MST rows changes no label."""
    pts = sd.ss_varden(400, 2, seed=2)
    edges, cd, _ = hdbscan_mst(pts, 10, method="memogfk")
    eps = float(np.quantile(edges[:, 2], eps_q))
    labels = dbscan_star_from_mst(edges, cd, eps)
    perm = np.random.default_rng(0).permutation(edges.shape[0])
    assert np.array_equal(dbscan_star_from_mst(edges[perm], cd, eps), labels)
    # Scanning the clustered vertices in order, each new cluster takes
    # the next id.
    clustered = labels[labels >= 0]
    first = np.sort(np.unique(clustered, return_index=True)[1])
    assert np.array_equal(clustered[first], np.arange(first.size))


def test_mutual_reachability_bruteforce_properties():
    pts = sd.uniform_fill(100, 3, seed=0)
    dm = mutual_reachability_bruteforce(pts, 5)
    assert np.allclose(dm, dm.T)
    assert np.allclose(np.diag(dm), 0.0)
    d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    assert (dm >= d - 1e-12).all()


def test_stats_pair_savings_memogfk_vs_gantao():
    """The new definition should also reduce the pairs MemoGFK touches
    per round (the 2.5-10.29x claim's mechanism)."""
    pts = sd.ss_varden(2000, 3, seed=4)
    _, _, s_new = hdbscan_mst(pts, 10, method="memogfk")
    _, _, s_std = hdbscan_mst(pts, 10, method="gantao")
    assert s_new.bccp_computed <= s_std.bccp_computed


@pytest.mark.parametrize("bad", [np.nan, np.inf, *HUGE, *TINY])
@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_hdbscan_rejects_non_finite_points(method, bad):
    pts = spoil(sd.uniform_fill(80, 3, seed=2), bad, 5, 0)
    with pytest.raises(ValueError, match=rejection(bad)):
        hdbscan_mst(pts, 5, method=method)


@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_hdbscan_accepts_the_smallest_extent_that_squares(method):
    """At extent 1e-150 squared distances are still normal floats."""
    pts = np.random.default_rng(3).random((60, 2)) * 1e-150
    ref = mst_bruteforce_mutual(pts, core_distances(kdt.build(pts), 3))[:, 2].sum()
    edges, _, _ = hdbscan_mst(pts, 3, method=method)
    assert edges.shape == (59, 3)
    assert np.isclose(edges[:, 2].sum(), ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("min_pts", [0, -1])
@pytest.mark.parametrize("method", ["memogfk", "gantao"])
def test_hdbscan_rejects_min_pts_below_1(method, min_pts):
    with pytest.raises(ValueError, match="minPts"):
        hdbscan_mst(sd.uniform_fill(50, 2, seed=2), min_pts, method=method)


@pytest.mark.parametrize(
    "run",
    [
        lambda pts: hdbscan_mst(pts, 10, method="memogfk"),
        lambda pts: hdbscan_mst(pts, 10, method="gantao"),
        lambda pts: optics_approx_mst(pts, 10),
        lambda pts: wspd_pair_counts(pts, 10),
    ],
    ids=["memogfk", "gantao", "optics", "wspd_pair_counts"],
)
def test_one_kdtree_per_run(monkeypatch, run):
    """The k-NN, the WSPD traversals and the BCCP* kernels all run on
    one kd-tree: a run builds exactly one."""
    calls = []
    build = kdt.build

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(kdt, "build", counting)
    run(sd.uniform_fill(300, 2, seed=1))
    assert len(calls) == 1
