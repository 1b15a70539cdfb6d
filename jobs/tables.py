"""Reproduce the paper's Tables 2-5 and the Appendix C OPTICS comparison,
printing paper-style rows. Usage:

    spark-submit jobs/tables.py [2 3 4 5 C] [--datasets ...] [--minpts 10]

With no table named, all five run. Table 2 is derived from fresh Table 4
and Table 5 runs, which are printed too. A Spark session starts only
when a chosen table has a par column (2, 4, 5).
"""
from _common import dataset_parser, get_spark

TABLES = ["2", "3", "4", "5", "C"]


def print_tables(chosen: set[str], args, spark) -> None:
    from repro.experiments import tables

    if "3" in chosen:
        print(tables.format_table(tables.TITLES["3"], tables.table3(args.datasets)))
    if chosen & {"2", "4"}:
        t4 = tables.table4(spark, args.datasets)
        print(tables.format_table(tables.TITLES["4"], t4))
        for name, row in t4.items():
            for m, c in row.items():
                if c.stats:
                    print(
                        f"  [{name} / {m}] pairs={c.stats.get('pairs')} "
                        f"bccp={c.stats.get('bccp')} rounds={c.stats.get('rounds')} "
                        f"visits={c.stats.get('visits')}"
                    )
    if chosen & {"2", "5"}:
        t5 = tables.table5(spark, args.datasets, min_pts=args.minpts)
        title = tables.TITLES["5"].format(min_pts=args.minpts)
        print(tables.format_table(title, t5))
        # pairs_materialized of a MemoGFK run is its peak per-round
        # candidate count, not a WSPD size.
        for name, row in t5.items():
            pm = row["HDBSCAN*-MemoGFK"].stats.get("pairs")
            pg = row["HDBSCAN*-GanTao"].stats.get("pairs")
            if pm and pg:
                print(f"  [{name}] peak live pairs, GanTao/MemoGFK = {pg / pm:.2f}x")
    if "2" in chosen:
        print(tables.format_table2(tables.table2(t4, t5)))
    if "C" in chosen:
        tc = tables.appendix_c(args.datasets, min_pts=args.minpts)
        print(tables.format_table(tables.TITLES["C"], tc))
        for name, row in tc.items():
            optics, gantao, memogfk = (row[m].seq for m in tables.APPENDIX_C_METHODS)
            print(
                f"  [{name}] OPTICS slowdown vs GanTao/MemoGFK = "
                f"{optics / gantao:.2f}x/{optics / memogfk:.2f}x"
            )
            pairs = row["OPTICS-approx"].stats["pairs"]
            print(f"  [{name}] OPTICS-approx WSPD pairs (s=8) = {pairs}")


def main() -> None:
    parser = dataset_parser(__doc__)
    parser.add_argument(
        "tables", nargs="*", metavar="TABLE",
        help=f"any of {' '.join(TABLES)} (default: all)",
    )
    parser.add_argument("--minpts", type=int, default=10)
    args = parser.parse_args()
    if unknown := sorted(set(args.tables) - set(TABLES)):
        parser.error(
            f"unknown table(s) {' '.join(unknown)}; choose from {' '.join(TABLES)}"
        )
    chosen = set(args.tables or TABLES)
    spark = get_spark("tables") if chosen & {"2", "4", "5"} else None
    try:
        print_tables(chosen, args, spark)
    finally:
        if spark is not None:
            spark.stop()


if __name__ == "__main__":
    main()
