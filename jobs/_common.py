"""Shared glue for the spark-submit entrypoints in jobs/.

Each job builds (or reuses) a local SparkSession for the Spark
fan-outs, which run plain RDD map jobs, so it sets no SQL options.
``conftest.py`` keeps its shuffle-partition, Arrow and broadcast-join
settings, because the DuckDB-oracle tests build DataFrames.
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
