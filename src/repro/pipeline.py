"""The layout stage in one call: a dataset and its assignment → a chunk
store whose ``indexes`` are read back from M as stored (§2.4)."""
from __future__ import annotations

from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

from .kvs.store import ChunkStore
from .versioned.generator import VersionedDataset
from .versioned.membership import membership_spark


def lay_out(spark: SparkSession, ds: VersionedDataset,
            assignment: pd.DataFrame, path: str | Path, *,
            n_nodes: int = 1) -> ChunkStore:
    """Store ``ds``'s records at ``path`` in the chunks of ``assignment``
    (key, origin, chunk), each with its chunk map from Spark membership."""
    records = ds.spark_records(spark)
    chunks = spark.createDataFrame(assignment[["key", "origin", "chunk"]],
                                   "key long, origin long, chunk long")
    store = ChunkStore(path, n_nodes=n_nodes)
    store.write(records.join(chunks, ["key", "origin"]), membership_spark(
        spark, ds.graph, records, ds.spark_kills(spark)))
    return store
