"""Measure where each Spark fan-out starts to beat the driver. Usage:

    spark-submit jobs/break_even.py --sizes 2500 10000 20000

For GeoLife-like inputs of each size it runs the HDBSCAN* pipeline,
then times every fan-out's work on the driver and forced through Spark
(the ``_MIN_PARALLEL_*`` break-evens of ``repro.engine.distribute`` set
to 0), and prints one row per measurement: the fan-out, its work in the
unit its break-even counts, and the median driver and Spark seconds.
The BCCP* rows take the batch the MemoGFK rounds hand to
``SparkBccp.bccp_many`` with the most cells outside its largest pair
(``spread_cells``, the unit of the BCCP break-even), and subsets of it:
its largest pair plus random other pairs holding 1/8, 1/4 and 1/2 of
those cells. Like the k-NN row's, the BCCP* Spark time includes the
tree broadcast, which every fan-out job makes for itself. The
dendrogram rows count the band edges the fan-out deals. The fan-out
rows time ``_fan_out`` itself with a no-op kernel over
``defaultParallelism`` one-item groups (its work, one task each),
without a tree (n = 0) and with each size's tree broadcast: the fixed
cost per job that every break-even must repay. DESIGN.md Section 3
records a run; the break-even constants are set from it.
"""
import argparse
import time

import numpy as np

from _common import get_spark


def median_seconds(fn, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls, after one warm-up call."""
    fn()
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return float(np.median(times))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--sizes", type=int, nargs="+", default=[2500, 10000, 20000])
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args()

    from repro import synth_data as sd
    from repro.core import hdbscan
    from repro.core.bccp import bccp_batch
    from repro.core.dendrogram import dendrogram_topdown
    from repro.engine import distribute
    from repro.geometry import kdtree
    from repro.geometry.knn import core_distances

    spark = get_spark("break-even")
    cores = spark.sparkContext.defaultParallelism
    print(f"defaultParallelism={cores}")
    print(f"{'fan-out':<11}{'n':>7}{'work':>13}{'driver_s':>10}{'spark_s':>10}")

    def row(fanout: str, n: int, work: int, drv, par) -> None:
        t_drv = median_seconds(drv, args.repeats)
        t_par = median_seconds(par, args.repeats)
        print(f"{fanout:<11}{n:>7}{work:>13,}{t_drv:>10.3f}{t_par:>10.3f}", flush=True)

    ones = [[g] for g in range(cores)]

    def noop(*args) -> None:
        return None

    row(
        "fan-out", 0, cores,
        lambda: [noop(g) for g in ones],
        lambda: distribute._fan_out(spark, ones, noop),
    )
    batches = []
    record = distribute.SparkBccp.bccp_many

    def recording(self, pairs, star=False):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.shape[0] > 1:
            batches.append(pairs)
        return record(self, pairs, star)

    for name in ("_MIN_PARALLEL_CELLS", "_MIN_PARALLEL_POINTS", "_MIN_PARALLEL_EDGES"):
        setattr(distribute, name, 0)
    for n in args.sizes:
        pts = sd.geolife_like(n, seed=1)
        tree = kdtree.build(pts)
        row(
            "fan-out", n, cores,
            lambda: [noop(tree, g) for g in ones],
            lambda: distribute._fan_out(spark, ones, noop, tree),
        )
        row(
            "k-NN", n, n,
            lambda: core_distances(tree, 10),
            lambda: distribute.core_distances_spark(spark, tree, 10),
        )
        batches.clear()
        distribute.SparkBccp.bccp_many = recording
        try:
            edges, cd, _ = hdbscan.hdbscan_mst(pts, 10, spark=spark)
        finally:
            distribute.SparkBccp.bccp_many = record
        kdtree.attach_core_distances(tree, cd)
        ctx = distribute.SparkBccp(spark, tree)
        sz = tree.hi - tree.lo

        def cells_of(b):
            return sz[b[:, 0]] * sz[b[:, 1]]

        largest = max(batches, key=lambda b: distribute.spread_cells(cells_of(b)))
        # The largest pair first, then the others in random order.
        c = cells_of(largest)
        rest = np.delete(np.arange(c.size), np.argmax(c))
        largest = largest[np.r_[np.argmax(c), np.random.default_rng(n).permutation(rest)]]
        spread = np.cumsum(cells_of(largest)) - c.max()
        for frac in (0.125, 0.25, 0.5, 1.0):
            b = largest[: int(np.searchsorted(spread, frac * spread[-1])) + 1]
            row(
                "BCCP*", n, int(spread[b.shape[0] - 1]),
                lambda: bccp_batch(tree, b[:, 0], b[:, 1], True),
                lambda: ctx.bccp_many(b, star=True),
            )
        # The fan-out deals every band, so all n - 1 tree edges.
        row(
            "dendrogram", n, edges.shape[0],
            lambda: dendrogram_topdown(edges, 0),
            lambda: dendrogram_topdown(edges, 0, spark=spark),
        )
    spark.stop()


if __name__ == "__main__":
    main()
