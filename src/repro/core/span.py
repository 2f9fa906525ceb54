"""Span evaluation (§2.5): the key retrieval-cost metric.

The *span of a query* is the number of chunks that must be retrieved to
answer it. For a version-retrieval query that is the number of distinct
chunks holding the version's records; the *total version span* sums this
over all versions (Fig 8's metric).

Every partitioner's assignment is collected on the driver, so spans are
evaluated in pandas by joining the membership relation with the
assignment. :func:`assignment_df` lifts an assignment back into Spark;
only :func:`~repro.core.shingle.shingle_partition`'s return and the
benchmark's ingest layout still use it.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

_ASSIGN_SCHEMA = T.StructType([
    T.StructField("key", T.LongType(), False),
    T.StructField("origin", T.LongType(), False),
    T.StructField("size", T.LongType(), False),
    T.StructField("chunk", T.LongType(), False),
])


def assignment_df(spark: SparkSession, assignment: pd.DataFrame) -> DataFrame:
    """Lift a driver-side assignment (key, origin, size, chunk) into Spark."""
    return spark.createDataFrame(
        assignment[["key", "origin", "size", "chunk"]], schema=_ASSIGN_SCHEMA)


def version_spans_pd(membership: pd.DataFrame,
                     assignment: pd.DataFrame) -> pd.Series:
    """Per-version span: distinct chunks per ``vid``."""
    m = membership.merge(assignment, on=["key", "origin"])
    return m.groupby("vid")["chunk"].nunique()


def total_version_span_pd(membership: pd.DataFrame,
                          assignment: pd.DataFrame) -> int:
    return int(version_spans_pd(membership, assignment).sum())
