"""Property test of every exact EMST / HDBSCAN* entry point: on small
rounded lattices with duplicates, translated far from the origin,
scaled by up to 12 orders of magnitude or permuted, each returns n - 1
edges whose total weight is the dense Prim oracle's."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.emst import emst_delaunay, emst_gfk, emst_memogfk, emst_naive
from repro.core.hdbscan import hdbscan_mst
from repro.graph.boruvka import emst_boruvka
from repro.graph.prim import mst_bruteforce, mst_bruteforce_mutual

EMST = {
    "naive": lambda pts: emst_naive(pts)[0],
    "gfk": lambda pts: emst_gfk(pts)[0],
    "memogfk": lambda pts: emst_memogfk(pts)[0],
    "boruvka": emst_boruvka,
}


def _dense_core_distances(pts: np.ndarray, min_pts: int) -> np.ndarray:
    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    return np.sort(d, axis=1)[:, min_pts - 1]


def _check(edges: np.ndarray, n: int, weight: float) -> None:
    assert edges.shape == (n - 1, 3)
    assert np.isclose(edges[:, 2].sum(), weight, rtol=1e-9, atol=0)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 200),
    d=st.integers(2, 3),
    grid=st.integers(2, 12),
    dups=st.integers(0, 40),
    transform=st.sampled_from(["translate", "scale", "permute"]),
    exponent=st.integers(-12, 12),
    min_pts=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_entry_points_match_prim_under_transforms(
    n, d, grid, dups, transform, exponent, min_pts, seed
):
    rng = np.random.default_rng(seed)
    pts = np.round(rng.random((n, d)) * grid, 1)
    pts = np.vstack([pts, pts[rng.integers(0, n, min(dups, 200 - n))]])
    if transform == "translate":
        pts = pts + rng.random(d) * 1e9
    elif transform == "scale":
        pts = pts * 10.0**exponent
    else:
        pts = pts[rng.permutation(pts.shape[0])]
    n = pts.shape[0]

    weight = mst_bruteforce(pts)[:, 2].sum()
    for name, solve in EMST.items():
        _check(solve(pts), n, weight)
    if d == 2:
        _check(emst_delaunay(pts)[0], n, weight)

    min_pts = min(min_pts, n)
    weight = mst_bruteforce_mutual(pts, _dense_core_distances(pts, min_pts))[:, 2].sum()
    for method in ("memogfk", "gantao"):
        _check(hdbscan_mst(pts, min_pts, method=method)[0], n, weight)
