"""Fig 8 (as a table): total version span without compression, for
BOTTOM-UP / SHINGLE / DEPTHFIRST / BREADTHFIRST / DELTA across the
scaled Table-2 datasets, chunk size fixed (the paper uses 1 MB; scaled
datasets use a proportionally scaled chunk).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..core.baselines import delta_partition, delta_total_span
from ..core.bottom_up import bottom_up_partition
from ..core.shingle import shingle_partition
from ..core.span import total_version_span_pd
from ..core.traversal import bfs_partition, dfs_partition
from ..versioned.datasets import CORE_NAMES, make
from ..versioned.membership import membership_pd, membership_spark


def run_dataset(spark: SparkSession, name: str, *, scale: float = 1.0,
                C: int = 10_000) -> dict:
    """Spans for one dataset; chunk C in bytes (~100 records)."""
    ds = make(name, scale=scale)
    g = ds.graph
    mem_p = membership_pd(g, ds.records, ds.kills)
    mem_s = membership_spark(spark, g, ds.spark_records(spark),
                             ds.spark_kills(spark))
    sh = shingle_partition(mem_s, C).select("key", "origin", "chunk").toPandas()
    row = {
        "dataset": name,
        "BOTTOMUP": total_version_span_pd(
            mem_p, bottom_up_partition(g, ds.records, ds.kills, C)),
        "SHINGLE": total_version_span_pd(mem_p, sh),
        "DEPTHFIRST": total_version_span_pd(
            mem_p, dfs_partition(g, ds.records, C)),
        "BREADTHFIRST": total_version_span_pd(
            mem_p, bfs_partition(g, ds.records, C)),
        "DELTA": delta_total_span(g, delta_partition(g, ds.records, C)),
    }
    row["delta_over_bottomup"] = round(row["DELTA"] / row["BOTTOMUP"], 2)
    return row


def run(spark: SparkSession, *, names=None, scale: float = 1.0,
        C: int = 10_000) -> pd.DataFrame:
    return pd.DataFrame([run_dataset(spark, n, scale=scale, C=C)
                         for n in (names or CORE_NAMES)])
