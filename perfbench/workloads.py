"""Workload table, input generation, oracle reference and result checks.

Every input comes straight from a ``repro.synth_data`` generator with an
explicit ``n``, ``d`` and a seed derived from the run's seed, so no
environment variable can change a workload. A workload whose cost varies
much from one input to the next solves several inputs per run, so that
a run's median does not hinge on one draw. The oracle reference (dense
Prim over the complete Euclidean or mutual-reachability graph) is
computed once per input, before any solve, and every timed solve is
checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_PTS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str   # function name in repro.synth_data
    n: int
    d: int
    pipeline: str    # "emst-gfk" or "hdbscan"
    spark: bool
    inputs: int      # inputs per run, input j from seed * inputs + j
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hdbscan-geolife-spark", "geolife_like", 2500, 3, "hdbscan", True, 6,
            "HDBSCAN* + top-down dendrogram on skewed data through Spark "
            "local[nproc]: k-NN, MemoGFK with BCCP*, the dendrogram and "
            "both Spark fan-outs (BCCP*, dendrogram subproblems).",
        ),
        Workload(
            "emst-gfk-uniform3d", "uniform_fill", 1500, 3, "emst-gfk", False, 3,
            "Sequential GFK EMST on unskewed data: materializes the full "
            "WSPD, tiny per-pair BCCP calls dominate; no k-NN, dendrogram, "
            "MemoGFK or Spark.",
        ),
    )
}


def make_points(w: Workload, n: int, seed: int) -> np.ndarray:
    from repro import synth_data

    gen = getattr(synth_data, w.generator)
    if w.generator == "geolife_like":  # fixed at 3 dimensions
        return gen(n, seed=seed)
    return gen(n, w.d, seed=seed)


def make_inputs(w: Workload, n: int, seed: int) -> dict[str, np.ndarray]:
    """The run's inputs and their oracle references, stacked on axis 0."""
    pts = [make_points(w, n, seed * w.inputs + j) for j in range(w.inputs)]
    refs = [reference(w, p) for p in pts]
    out = {k: np.stack([r[k] for r in refs]) for k in refs[0]}
    out["points"] = np.stack(pts)
    return out


def core_distances_bruteforce(points: np.ndarray, min_pts: int) -> np.ndarray:
    """Distance to the min_pts-th nearest point (counting the point
    itself), by block-wise dense differences; shares no code with the
    kd-tree k-NN it checks."""
    n = points.shape[0]
    out = np.empty(n)
    block = max(1, 2_000_000 // max(1, n * points.shape[1]))
    for lo in range(0, n, block):
        diff = points[lo : lo + block, None, :] - points[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        out[lo : lo + block] = np.sqrt(
            np.partition(d2, min_pts - 1, axis=1)[:, min_pts - 1]
        )
    return out


def reference(w: Workload, points: np.ndarray) -> dict[str, np.ndarray]:
    """Oracle reference: sorted MST weights (and core distances for
    HDBSCAN*) from dense Prim, independent of the kd-tree code."""
    from repro.graph import prim

    if w.pipeline == "hdbscan":
        cd = core_distances_bruteforce(points, MIN_PTS)
        mst = prim.mst_bruteforce_mutual(points, cd)
        return {"weights": np.sort(mst[:, 2]), "core_distances": cd}
    return {"weights": np.sort(prim.mst_bruteforce(points)[:, 2])}


def _spans(n: int, edges: np.ndarray) -> bool:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = 0
    for u, v in edges[:, :2].astype(np.int64).tolist():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            joined += 1
    return joined == n - 1


def check(ref: dict[str, np.ndarray], n: int, out) -> str | None:
    """Validate one solve's output; returns None or the first failure."""
    from repro.graph.prim import is_valid_prim_order

    edges, cd, dendro = out["edges"], out.get("core_distances"), out.get("dendrogram")
    if edges.shape != (n - 1, 3):
        return f"expected {n - 1} edges, got shape {edges.shape}"
    if not _spans(n, edges):
        return "edges do not span all points"
    w = np.sort(edges[:, 2])
    if not np.allclose(w, ref["weights"], rtol=1e-9, atol=0.0):
        return f"MST weight {w.sum()!r} != reference {ref['weights'].sum()!r}"
    if cd is not None and not np.allclose(cd, ref["core_distances"], rtol=1e-9, atol=0.0):
        return "core distances differ from brute force"
    if dendro is not None:
        if dendro.n != n:
            return f"dendrogram has {dendro.n} leaves, expected {n}"
        order, bars = dendro.reachability()
        if not np.array_equal(np.sort(order), np.arange(n)):
            return "reachability order is not a permutation of the points"
        if not is_valid_prim_order(n, edges, order, bars):
            return "reachability order is not a valid Prim order"
    return None


def solve(w: Workload, points: np.ndarray, spark=None) -> dict:
    """One end-to-end solve. Entry points are looked up on their modules
    at call time, so the tracer's patches apply."""
    from repro.core import dendrogram, emst, hdbscan

    if w.pipeline == "emst-gfk":
        edges, stats = emst.emst_gfk(points)
        return {"edges": edges, "stats": stats}
    edges, cd, stats = hdbscan.hdbscan_mst(
        points, min_pts=MIN_PTS, method="memogfk", spark=spark
    )
    dendro = dendrogram.dendrogram_topdown(edges, spark=spark)
    return {"edges": edges, "core_distances": cd, "dendrogram": dendro, "stats": stats}
