"""Internals of Algorithms 2 and 3: the connectivity summaries and the
per-round traversal invariants that GFK/MemoGFK correctness rests on."""
import numpy as np
import pytest

from repro.core import memogfk
from repro.core.bccp import bccp, bccp_batch, bccp_star
from repro.core.emst import emst_gfk, emst_memogfk
from repro.core.gfk import GfkStats, gfk_mst, mono_labels
from repro.core.hdbscan import hdbscan_mst
from repro.core.memogfk import get_pairs, get_rho
from repro.core.wspd import pair_point_count, v_center_dist, v_gap, wspd
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances
from repro.graph.kruskal import kruskal_batch
from repro.graph.prim import mst_bruteforce, mst_bruteforce_mutual
from repro.synth_data import geolife_like, uniform_fill
from tests.unionfind import UnionFind


def _tree(n=300, d=2, seed=0):
    pts = np.random.default_rng(seed).random((n, d)) * 10
    return kdt.build(pts)


def _random_labels(n, merges, seed=0):
    """Every vertex's union-find root after ``merges`` random unions."""
    uf = UnionFind(n)
    rng = np.random.default_rng(seed)
    for _ in range(merges):
        uf.union(int(rng.integers(n)), int(rng.integers(n)))
    return np.array([uf.find(v) for v in range(n)])


@pytest.mark.parametrize("merges", [0, 10, 150, 299])
def test_mono_labels_matches_naive(merges):
    t = _tree()
    labels = _random_labels(t.n, merges, seed=merges)
    mono = mono_labels(t, labels)
    lab = labels[t.perm]
    for v in range(t.n_nodes):
        seg = lab[t.lo[v] : t.hi[v]]
        expect = seg[0] if np.all(seg == seg[0]) else -1
        assert mono[v] == expect


@pytest.mark.parametrize("beta", [2, 8, 64, 10_000])
def test_get_rho_lower_bounds_big_pair_bccps(beta):
    """rho_hi must never exceed the BCCP of any not-yet-connected
    well-separated pair with cardinality > beta (that is exactly what
    makes the [rho_lo, rho_hi) batch safe for Kruskal)."""
    t = _tree(seed=2)
    mono = mono_labels(t, _random_labels(t.n, 120, seed=3))
    rho = get_rho(t, beta, 0.0, mono, "s2", False, GfkStats())[0]
    sz = t.hi - t.lo
    for a, b in wspd(t, "s2"):
        a, b = int(a), int(b)
        if sz[a] + sz[b] <= beta:
            continue
        if mono[a] != -1 and mono[a] == mono[b]:
            continue
        assert bccp(t, a, b)[2] >= rho - 1e-9


@pytest.mark.parametrize("lo_q,hi_q", [(0.0, 0.3), (0.3, 0.8), (0.8, 1.01)])
def test_get_pairs_returns_exactly_in_range_edges(lo_q, hi_q):
    """get_pairs must return precisely the WSPD BCCP edges (over
    unconnected pairs) with weight in [rho_lo, rho_hi)."""
    t = _tree(seed=4, n=200)
    mono = mono_labels(t, _random_labels(t.n, 60, seed=5))
    pairs = wspd(t, "s2")
    all_w = np.array([bccp(t, int(a), int(b))[2] for a, b in pairs])
    keep = np.array(
        [
            not (mono[a] != -1 and mono[a] == mono[b])
            for a, b in pairs
        ]
    )
    rho_lo = float(np.quantile(all_w, lo_q)) if lo_q > 0 else 0.0
    rho_hi = float(np.quantile(all_w, min(hi_q, 1.0))) if hi_q <= 1 else np.inf
    expect = np.sort(all_w[keep & (all_w >= rho_lo) & (all_w < rho_hi)])
    # beta > n: no pair is big, so get_rho's candidates are every
    # unconnected well-separated pair that may be in range.
    _, cand, bounds = get_rho(t, t.n + 1, rho_lo, mono, "s2", False, GfkStats())
    got = get_pairs(t, rho_lo, rho_hi, cand, bounds, False, GfkStats(), None)
    assert np.allclose(np.sort(got[:, 2]), expect)


@pytest.mark.parametrize("beta", [2, 8, 64])
def test_round_returns_exactly_in_range_bccp_star_edges(beta):
    """One HDBSCAN*-MemoGFK round (new separation, BCCP*): get_rho then
    get_pairs return precisely the BCCP* edges of the unconnected WSPD
    pairs in [rho_lo, rho_hi), and rho_hi lower-bounds the BCCP* of
    every unconnected pair with cardinality > beta."""
    t = _tree(seed=23, n=200)
    kdt.attach_core_distances(t, core_distances(t, 5))
    mono = mono_labels(t, _random_labels(t.n, 60, seed=12))
    pairs = wspd(t, "hdbscan")
    w = np.array([bccp_star(t, int(a), int(b))[2] for a, b in pairs])
    a, b = pairs.T
    sz = t.hi - t.lo
    card = sz[a] + sz[b]
    unconnected = ~((mono[a] != -1) & (mono[a] == mono[b]))
    # Between the lightest pair and the lightest one with cardinality >
    # 2: every round's rho_lo is at most the latter, as in a run.
    rho_lo = 0.5 * (w[unconnected].min() + w[unconnected & (card > 2)].min())
    assert np.any(unconnected & (w < rho_lo))
    rho_hi, cand, bounds = get_rho(t, beta, rho_lo, mono, "hdbscan", True, GfkStats())
    assert rho_hi > rho_lo
    got = get_pairs(t, rho_lo, rho_hi, cand, bounds, True, GfkStats(), None)
    expect = np.sort(w[unconnected & (w >= rho_lo) & (w < rho_hi)])
    assert expect.size
    assert np.allclose(np.sort(got[:, 2]), expect)
    assert np.all(w[unconnected & (card > beta)] >= rho_hi - 1e-9)


def test_get_rho_infinite_when_no_big_pairs():
    t = _tree(n=50, seed=7)
    mono = mono_labels(t, np.arange(t.n))
    assert get_rho(t, 10_000, 0.0, mono, "s2", False, GfkStats())[0] == np.inf


def test_get_rho_star_uses_core_distance_floor():
    """With the star metric, rho_hi must respect cd_min floors: it can
    only be >= the smallest core distance among unconnected points."""
    t = _tree(n=120, seed=8)
    cd = np.random.default_rng(9).random(t.n) * 3 + 1.0
    kdt.attach_core_distances(t, cd)
    mono = mono_labels(t, np.arange(t.n))
    rho = get_rho(t, 2, 0.0, mono, "s2", True, GfkStats())[0]
    for a, b in wspd(t, "s2"):
        a, b = int(a), int(b)
        if t.size(a) + t.size(b) <= 2:
            continue
        assert bccp_star(t, a, b)[2] >= rho - 1e-9


def test_gfk_stats_fields():
    from repro.core.emst import emst_gfk

    pts = np.random.default_rng(1).random((400, 2)) * 10
    _, s = emst_gfk(pts)
    assert s.rounds >= 1
    assert s.bccp_computed <= s.pairs_materialized
    assert s.bccp_work_cells >= s.bccp_computed


@pytest.mark.parametrize(
    "method,min_pts",
    [("emst", 1), ("memogfk", 1), ("gantao", 1), ("memogfk", 4), ("gantao", 4)],
)
def test_memogfk_spans_when_weights_sit_one_ulp_below_bounds(monkeypatch, method, min_pts):
    """A BCCP weight one ulp below its pair's lower bound must not make
    every round drop the edge: on a 12x12 lattice (many pairs whose
    weight equals their bound) MemoGFK must still return Prim's MST."""
    exact = memogfk.compute_bccps

    def one_ulp_low(*args):
        edges = exact(*args).copy()
        edges[:, 2] = np.nextafter(edges[:, 2], -np.inf)
        return edges

    monkeypatch.setattr(memogfk, "compute_bccps", one_ulp_low)
    g = np.arange(12, dtype=np.float64)
    pts = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    if method == "emst":
        edges = emst_memogfk(pts)[0]
        ref = mst_bruteforce(pts)
    else:
        edges = hdbscan_mst(pts, min_pts, method)[0]
        ref = mst_bruteforce_mutual(pts, core_distances(kdt.build(pts), min_pts))
    assert edges.shape == (143, 3)
    assert np.allclose(np.sort(edges[:, 2]), np.sort(ref[:, 2]))


_ROUNDING_CASES = {
    # Collinear points with duplicates: many pairs' bounds equal their
    # weights, so a bound one ulp high sits above a pair below it.
    "collinear-duplicates": np.outer(np.random.default_rng(0).integers(0, 25, 60), [1.0, 2.0])
    * 0.01,
    # A rounded lattice far from the origin: node centers are rounded,
    # so spheres miss their points by a few 1e-9.
    "rounded-lattice-1e9": np.round(np.random.default_rng(10).random((110, 2)) * 2, 1)
    + [1e9, 1e9 + 0.5],
}


@pytest.mark.parametrize(
    "method,min_pts",
    [("emst", 1), ("memogfk", 1), ("gantao", 1), ("memogfk", 3), ("gantao", 3)],
)
@pytest.mark.parametrize("case", list(_ROUNDING_CASES))
def test_memogfk_exact_when_bounds_round_above_a_lower_pair(method, min_pts, case):
    """Where a pair's bound rounds above the weight of a pair below it in
    the traversal, pruning that pair in the round of the lower pair's
    weight used to drop the edge from every round. MemoGFK must still
    return a tree of Prim's weight."""
    pts = _ROUNDING_CASES[case]
    if method == "emst":
        edges = emst_memogfk(pts)[0]
        ref = mst_bruteforce(pts)
    else:
        edges = hdbscan_mst(pts, min_pts, method)[0]
        ref = mst_bruteforce_mutual(pts, core_distances(kdt.build(pts), min_pts))
    assert edges.shape == (pts.shape[0] - 1, 3)
    assert np.isclose(edges[:, 2].sum(), ref[:, 2].sum(), rtol=1e-12, atol=0)


def _gfk_line6_reference(tree, pairs, star):
    """Algorithm 2 with Line 6 as the paper writes it: every round
    computes the BCCP of every S_l pair not cached yet, then takes the
    ones with BCCP <= rho_hi, in the order of ``gfk.gfk_mst``."""
    comp = np.arange(tree.n)
    out = [np.empty((0, 3))]
    edges = np.full((pairs.shape[0], 3), np.nan)
    card = pair_point_count(tree, pairs)
    A, B = pairs[:, 0], pairs[:, 1]
    lbs = v_gap(tree, A, B, v_center_dist(tree, A, B))
    if star:
        lbs = np.maximum(lbs, np.maximum(tree.cd_min[A], tree.cd_min[B]))
    active = np.arange(pairs.shape[0])
    beta = 2
    while active.size:
        s_l = active[card[active] <= beta]
        s_u = active[card[active] > beta]
        rho_hi = float(lbs[s_u].min()) if s_u.size else np.inf
        todo = s_l[np.isnan(edges[s_l, 2])]
        edges[todo] = bccp_batch(tree, pairs[todo, 0], pairs[todo, 1], star)
        take = edges[s_l, 2] <= rho_hi
        batch = edges[s_l[take]]
        kruskal_batch(
            batch[:, 0].astype(np.int64), batch[:, 1].astype(np.int64), batch[:, 2], comp, out
        )
        remaining = np.concatenate([s_l[~take], s_u])
        mono = mono_labels(tree, comp)
        ma, mb = mono[pairs[remaining, 0]], mono[pairs[remaining, 1]]
        active = remaining[~((ma != -1) & (ma == mb))]
        beta *= 2
    return np.concatenate(out)


_lattice_rng = np.random.default_rng(21)
_GFK_CASES = {
    "random": np.random.default_rng(20).random((400, 3)) * 10,
    # Integer lattices: many BCCPs tie with each other and with rho_hi.
    "lattice-2d": _lattice_rng.integers(0, 15, (300, 2)).astype(np.float64),
    "lattice-3d": _lattice_rng.integers(0, 6, (300, 3)).astype(np.float64),
    # Zero-radius duplicate nodes: S_l BCCPs equal to rho_hi exactly.
    "lattice-duplicates-3x": np.tile(
        np.random.default_rng(277).integers(0, 5, (60, 3)).astype(np.float64), (3, 1)
    ),
    "duplicates-5x": np.tile(np.random.default_rng(22).random((80, 3)), (5, 1)),
    "translated-1e9": np.random.default_rng(23).random((300, 3)) + 1e9,
}


@pytest.mark.parametrize("star", [False, True])
@pytest.mark.parametrize("case", list(_GFK_CASES))
def test_gfk_equals_line6_reference(case, star):
    """Computing BCCPs only for S_l pairs whose lower bound is at most
    rho_hi gives the same edges, in the same order, as computing every
    S_l BCCP (a pair with a larger bound cannot pass BCCP <= rho_hi)."""
    tree = kdt.build(_GFK_CASES[case])
    if star:
        kdt.attach_core_distances(tree, core_distances(tree, 4))
    pairs = wspd(tree, "s2")
    edges, stats = gfk_mst(tree, pairs, star=star)
    ref = _gfk_line6_reference(tree, pairs, star)
    assert edges.shape == (tree.n - 1, 3)
    assert np.array_equal(edges, ref)
    assert stats.bccp_computed < pairs.shape[0]


def test_gfk_computes_few_bccps_on_uniform_3d():
    """Most S_l pairs are connected before rho_hi reaches their bound,
    so GFK must leave most of the WSPD's BCCPs uncomputed."""
    _, stats = emst_gfk(uniform_fill(1500, 3, seed=0))
    assert stats.bccp_computed < stats.pairs_materialized / 3


@pytest.mark.parametrize(
    "pts",
    [geolife_like(2500, seed=0), np.tile(uniform_fill(200, 3, seed=5), (5, 1))],
    ids=["geolife-like", "duplicates-5x"],
)
@pytest.mark.parametrize("method", ["emst", "memogfk", "gantao"])
def test_memogfk_runs_no_empty_round(monkeypatch, pts, method):
    """A round with rho_hi <= rho_lo retrieves nothing, so MemoGFK must
    not run get_pairs for it; these inputs have such rounds."""
    calls = []
    rho_seen = []
    exact_pairs, exact_rho = memogfk.get_pairs, memogfk.get_rho

    def get_pairs(tree, rho_lo, rho_hi, *args):
        calls.append((rho_lo, rho_hi))
        return exact_pairs(tree, rho_lo, rho_hi, *args)

    def get_rho(*args):
        rho_seen.append(exact_rho(*args))
        return rho_seen[-1]

    monkeypatch.setattr(memogfk, "get_pairs", get_pairs)
    monkeypatch.setattr(memogfk, "get_rho", get_rho)
    if method == "emst":
        edges, stats = emst_memogfk(pts)
        ref = mst_bruteforce(pts)
    else:
        edges, _, stats = hdbscan_mst(pts, 10, method)
        ref = mst_bruteforce_mutual(pts, core_distances(kdt.build(pts), 10))
    assert all(lo < hi for lo, hi in calls)
    assert len(rho_seen) > len(calls) == stats.rounds
    assert edges.shape == (pts.shape[0] - 1, 3)
    assert np.isclose(edges[:, 2].sum(), ref[:, 2].sum(), rtol=1e-12, atol=0)
