"""Approximate OPTICS (Appendix C): approximation bounds and the
structural edge-generation cases."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.optics import optics_approx_mst
from repro.geometry import kdtree as kdt
from repro.geometry.knn import core_distances
from repro.graph.prim import mst_bruteforce_mutual
from tests.test_kdtree import HUGE, TINY, rejection


@pytest.mark.parametrize("rho", [0.125, 0.5])
@pytest.mark.parametrize("n,d,mp", [(200, 2, 10), (400, 2, 5), (300, 3, 10)])
def test_weight_within_approximation_factor(rho, n, d, mp):
    """Every approximate edge weight is within [d_m/(1+rho), d_m], so
    the approximate MST weight W' satisfies W/(1+rho) <= W' <= W."""
    pts = sd.uniform_fill(n, d, seed=n + int(rho * 8))
    cd = core_distances(kdt.build(pts), mp)
    exact = mst_bruteforce_mutual(pts, cd)[:, 2].sum()
    edges, _, _ = optics_approx_mst(pts, mp, rho=rho)
    approx = edges[:, 2].sum()
    assert edges.shape[0] == n - 1
    assert approx <= exact * (1 + 1e-9)
    assert approx >= exact / (1 + rho) - 1e-9


def test_spanning_and_deterministic():
    pts = sd.ss_varden(300, 2, seed=1)
    e1, cd1, s1 = optics_approx_mst(pts, 10, seed=42)
    e2, cd2, s2 = optics_approx_mst(pts, 10, seed=42)
    assert np.array_equal(e1, e2)
    assert s1.pairs_materialized == s2.pairs_materialized


def test_min_pts_1_all_pairs_become_rep_edges():
    """With minPts=1 every node has |A| >= minPts: one edge per pair,
    so the edge count equals the pair count."""
    pts = sd.uniform_fill(150, 2, seed=3)
    edges, cd, stats = optics_approx_mst(pts, 1, rho=0.125)
    assert np.allclose(cd, 0.0)
    assert stats.bccp_work_cells == stats.pairs_materialized


def test_small_nodes_fully_connected():
    """With minPts > n every pair is in the all-cross-edges case: the
    base graph is the complete graph, so the 'approximate' MST weight
    equals the exact one up to the 1/(1+rho) scaling of the d-legs."""
    n = 40
    pts = sd.uniform_fill(n, 2, seed=4)
    mp = n  # forces |A| < minPts and |B| < minPts everywhere
    cd = core_distances(kdt.build(pts), mp)
    edges, _, stats = optics_approx_mst(pts, mp, rho=0.125)
    # cd is the max pairwise distance scale here; all d_m = max cd terms
    ref = mst_bruteforce_mutual(pts, cd)[:, 2].sum()
    assert np.isclose(edges[:, 2].sum(), ref)


def test_larger_s_means_more_pairs_than_exact():
    """rho=0.125 -> s=8 must produce far more WSPD pairs than s=2 (the
    paper's explanation for the approximate method being *slower*)."""
    from repro.core.hdbscan import core_tree
    from repro.core.wspd import wspd

    pts = sd.uniform_fill(400, 2, seed=5)
    tree, _ = core_tree(pts, 10)
    assert wspd(tree, 8.0).shape[0] > 3 * wspd(tree, "s2").shape[0]


def test_optics_rejects_non_finite_points():
    pts = sd.uniform_fill(80, 2, seed=4)
    pts[9, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        optics_approx_mst(pts, 5)


@pytest.mark.parametrize("bad", [*HUGE, *TINY])
def test_optics_rejects_overflowing_points(bad):
    """Also where squared distances underflow."""
    with pytest.raises(ValueError, match=rejection(bad)):
        optics_approx_mst({**HUGE, **TINY}[bad], 5)


@pytest.mark.parametrize("min_pts", [0, -1])
def test_optics_rejects_min_pts_below_1(min_pts):
    with pytest.raises(ValueError, match="minPts"):
        optics_approx_mst(sd.uniform_fill(60, 2, seed=1), min_pts)


@pytest.mark.parametrize("rho", [0.0, -0.5])
def test_optics_rejects_non_positive_rho(rho):
    with pytest.raises(ValueError, match="rho"):
        optics_approx_mst(sd.uniform_fill(60, 2, seed=1), 5, rho=rho)


@pytest.mark.parametrize("min_pts", [1, 4, 10])
def test_pair_edges_follow_the_four_cases(min_pts):
    """Pair by pair, the flat layout holds the cross edges of the pair's
    two sides in row-major order, where a side of at least minPts points
    stands for one of its own points."""
    from repro.core.optics import _pair_edges
    from repro.core.wspd import wspd

    tree = kdt.build(sd.ss_varden(300, 2, seed=2))
    pairs = wspd(tree, 8.0)
    us, vs = _pair_edges(tree, pairs[:, 0], pairs[:, 1], min_pts, np.random.default_rng(0))
    at = 0
    for a, b in pairs:
        A, B = tree.points_of(a), tree.points_of(b)
        na, nb = (1 if X.size >= min_pts else X.size for X in (A, B))
        u, v = us[at : at + na * nb], vs[at : at + na * nb]
        at += na * nb
        side_a, side_b = u[::nb], v[:nb]
        for side, X in ((side_a, A), (side_b, B)):
            assert np.isin(side, X).all() if X.size >= min_pts else np.array_equal(side, X)
        assert np.array_equal(u, np.repeat(side_a, nb))
        assert np.array_equal(v, np.tile(side_b, na))
    assert at == us.size == vs.size
