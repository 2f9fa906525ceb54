"""§2.3's 'too many queries' table: version-reconstruction time vs chunk
size, at the paper's scale (1M unique 100-byte records, 100K-record
versions), chunks assigned randomly.

The spans/bytes are computed exactly with Spark over the metadata (no
payloads needed); the retrieval time is charged by the calibrated
SEC23 cost model (DESIGN §2). Paper row: 65.42 / 14.18 / 3.10 / 1.07 /
0.56 seconds for chunk sizes 1 / 10 / 100 / 1000 / 10000 records.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession, Window
from pyspark.sql import functions as F

from ..kvs.cost import SEC23_MODEL, CostModel

CHUNK_SIZES = (1, 10, 100, 1000, 10_000)
PAPER_TIMES = {1: 65.42, 10: 14.18, 100: 3.10, 1000: 1.07, 10_000: 0.56}


def run(spark: SparkSession, *, n_records: int = 1_000_000,
        version_size: int = 100_000, record_bytes: int = 100,
        chunk_sizes=CHUNK_SIZES, model: CostModel = SEC23_MODEL,
        seed: int = 0) -> pd.DataFrame:
    """Return rows (chunk_records, chunks_touched, mb_fetched, sim_s)."""
    recs = spark.range(n_records).select(
        F.col("id").alias("rec"),
        # Uniform random permutation proxy: order records by a hash so
        # consecutive hash-order records form a chunk == random assignment.
        F.xxhash64(F.lit(seed), F.col("id")).alias("h"))
    ordered = recs.withColumn(
        "pos", F.row_number().over(Window.orderBy("h")) - 1).cache()
    version = spark.range(n_records).select(
        F.col("id").alias("rec"),
        F.xxhash64(F.lit(seed + 1), F.col("id")).alias("vh")
    ).orderBy("vh").limit(version_size).select("rec")
    rows = []
    for cs in chunk_sizes:
        touched = (ordered.join(version, "rec")
                   .select(F.floor(F.col("pos") / cs).alias("chunk"))
                   .agg(F.countDistinct("chunk").alias("n"))
                   .collect()[0]["n"])
        nbytes = int(touched) * cs * record_bytes
        t = model.retrieval_time(int(touched), nbytes)
        rows.append({"chunk_records": cs, "chunks_touched": int(touched),
                     "mb_fetched": nbytes / 1e6, "sim_time_s": t,
                     "paper_time_s": PAPER_TIMES.get(cs)})
    ordered.unpersist()
    return pd.DataFrame(rows)
