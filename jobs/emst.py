"""Compute an EMST on a named data set with a chosen algorithm. Usage:

    spark-submit jobs/emst.py --algo memogfk --dataset 3D-UniformFill
"""
import argparse

from _common import get_spark


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument(
        "--algo",
        default="memogfk",
        choices=["naive", "gfk", "memogfk", "delaunay", "boruvka"],
    )
    p.add_argument("--dataset", default="3D-UniformFill")
    p.add_argument("--sequential", action="store_true", help="skip Spark")
    args = p.parse_args()

    from repro.core import emst as emst_mod
    from repro.experiments import datasets
    from repro.graph.boruvka import emst_boruvka

    pts = datasets.load(args.dataset)
    sequential_only = ("boruvka", "delaunay")
    spark = None if args.sequential or args.algo in sequential_only else get_spark("emst")
    if args.algo == "boruvka":
        edges = emst_boruvka(pts)
    else:
        fn = {
            "naive": emst_mod.emst_naive,
            "gfk": emst_mod.emst_gfk,
            "memogfk": emst_mod.emst_memogfk,
            "delaunay": emst_mod.emst_delaunay,
        }[args.algo]
        edges, stats = fn(pts) if spark is None else fn(pts, spark=spark)
        print(f"pairs={stats.pairs_materialized} bccp={stats.bccp_computed}")
    print(
        f"{args.dataset}: n={pts.shape[0]} edges={edges.shape[0]} "
        f"total weight={edges[:, 2].sum():.4f}"
    )
    if spark is not None:
        spark.stop()


if __name__ == "__main__":
    main()
