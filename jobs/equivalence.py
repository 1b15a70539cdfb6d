"""Save and compare every output a tree-level change must keep. Usage:

    PYTHONPATH=src python jobs/equivalence.py dump OUT.npz
    PYTHONPATH=src python jobs/equivalence.py compare A.npz B.npz

``dump`` runs, on the 12 table data sets at ``REPRO_BENCH_SCALE`` and
on four degenerate inputs (5x duplicates, identical points, a +1e9
translation and an integer lattice), everything that reads the kd-tree:
the tree arrays with the core-distance summaries (min_pts = 10), the
MST edges of EMST-Naive, -GFK and -MemoGFK, of the Boruvka baseline
(and of EMST-Delaunay on the 2D inputs), of HDBSCAN* under both
methods and of approximate OPTICS (seed 0), the node arrays
(left/right/weight/root; node ids are edge ranks, so they compare bit
for bit) and reachability plots of the top-down and the bottom-up
dendrogram over the HDBSCAN*-MemoGFK MST, and the flat clusterings at
three eps quantiles of the MST weights: single linkage over the
EMST-MemoGFK MST and DBSCAN* over the HDBSCAN*-MemoGFK MST. Cluster ids
are renumbered by smallest member before they are saved, so that two
numberings of one partition compare equal. All of it runs on the
driver, without Spark.

``compare`` prints every array that differs between two dumps (in
shape, dtype or any value) or is present in only one, and exits 1 if
there is any; run ``dump`` at two commits to check that a change keeps
outputs bit-identical.
"""
import argparse
import sys
import time

import numpy as np

_TREE = (
    "pts", "perm", "left", "right", "lo", "hi",
    "bb_min", "bb_max", "center", "radius", "cd", "cd_min", "cd_max",
)
_MIN_PTS = 10
_EPS_QUANTILES = (0.2, 0.6, 0.9)


def inputs() -> dict[str, np.ndarray]:
    from repro import synth_data as sd
    from repro.experiments import datasets

    out = {name: datasets.load(name) for name in datasets.ALL_DATASETS}
    base = sd.uniform_fill(200, 3, seed=5)
    out["duplicates-5x"] = np.tile(base, (5, 1))
    out["identical"] = np.full((200, 3), 0.25)
    out["translated-1e9"] = sd.uniform_fill(500, 3, seed=6) + 1e9
    g = np.arange(12, dtype=np.float64)
    out["lattice-12x12"] = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    return out


def by_smallest_member(labels: np.ndarray) -> np.ndarray:
    """``labels`` with clusters renumbered 0, 1, ... in the order of
    their smallest member; noise (-1) stays -1."""
    out = labels.copy()
    clustered = labels >= 0
    ids, first = np.unique(labels[clustered], return_index=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    out[clustered] = rank[np.searchsorted(ids, labels[clustered])]
    return out


def outputs(pts: np.ndarray) -> dict[str, np.ndarray]:
    from repro.core.dendrogram import (
        dendrogram_sequential,
        dendrogram_topdown,
        single_linkage_labels,
    )
    from repro.core.emst import emst_delaunay, emst_gfk, emst_memogfk, emst_naive
    from repro.core.hdbscan import core_tree, dbscan_star_from_mst, hdbscan_mst
    from repro.core.optics import optics_approx_mst
    from repro.graph.boruvka import emst_boruvka

    tree, cd = core_tree(pts, _MIN_PTS)
    out = {f"tree.{a}": getattr(tree, a) for a in _TREE}
    out["emst_naive"] = emst_naive(pts)[0]
    out["emst_gfk"] = emst_gfk(pts)[0]
    out["emst_memogfk"] = emst_memogfk(pts)[0]
    out["emst_boruvka"] = emst_boruvka(pts)
    if pts.shape[1] == 2:
        out["emst_delaunay"] = emst_delaunay(pts)[0]
    for method in ("memogfk", "gantao"):
        out[f"hdbscan_{method}"] = hdbscan_mst(pts, _MIN_PTS, method)[0]
    out["optics_approx"] = optics_approx_mst(pts, _MIN_PTS, seed=0)[0]
    for suffix, build in (("", dendrogram_topdown), ("_sequential", dendrogram_sequential)):
        dend = build(out["hdbscan_memogfk"])
        for a in ("left", "right", "weight", "root"):
            out[f"dendrogram{suffix}.{a}"] = np.asarray(getattr(dend, a))
        out[f"reachability{suffix}.order"], out[f"reachability{suffix}.bars"] = dend.reachability()
    emst, hdb = out["emst_memogfk"], out["hdbscan_memogfk"]
    for q in _EPS_QUANTILES:
        eps = float(np.quantile(emst[:, 2], q))
        labels = single_linkage_labels(emst, pts.shape[0], eps)
        out[f"single_linkage.q{q}"] = by_smallest_member(labels)
        eps = float(np.quantile(hdb[:, 2], q))
        out[f"dbscan_star.q{q}"] = by_smallest_member(dbscan_star_from_mst(hdb, cd, eps))
    return out


def dump(path: str) -> None:
    arrays = {}
    for name, pts in inputs().items():
        t = time.perf_counter()
        for key, arr in outputs(pts).items():
            arrays[f"{name}/{key}"] = arr
        print(f"{name}: n={pts.shape[0]} {time.perf_counter() - t:.1f} s", flush=True)
    np.savez(path, **arrays)


def differences(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> list[str]:
    out = [f"{k}: only in the first" for k in sorted(a.keys() - b.keys())]
    out += [f"{k}: only in the second" for k in sorted(b.keys() - a.keys())]
    for k in sorted(a.keys() & b.keys()):
        x, y = a[k], b[k]
        if x.dtype != y.dtype or x.shape != y.shape:
            out.append(f"{k}: {x.dtype}{x.shape} vs {y.dtype}{y.shape}")
        elif not np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
            bad = int(np.count_nonzero(x != y))
            out.append(f"{k}: {bad} of {x.size} values differ")
    return out


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        diffs = differences(dict(fa), dict(fb))
        n_arrays = len(fa.files)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences over {n_arrays} arrays")
    return 1 if diffs else 0


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("dump").add_argument("out")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args()
    if args.cmd == "dump":
        dump(args.out)
    else:
        sys.exit(compare(args.a, args.b))


if __name__ == "__main__":
    main()
