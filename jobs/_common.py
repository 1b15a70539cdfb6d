"""Shared glue for the spark-submit entrypoints in jobs/.

Each job builds (or reuses) a local SparkSession configured like the
test fixture in conftest.py: broadcast joins off so shuffle paths are
exercised, Arrow on for the pandas kernels.
"""
from __future__ import annotations

import argparse
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def dataset_parser(desc: str) -> argparse.ArgumentParser:
    from repro.experiments import datasets

    p = argparse.ArgumentParser(description=desc)
    p.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        choices=datasets.ALL_DATASETS,
        help="subset of data sets (default: all 12)",
    )
    return p
