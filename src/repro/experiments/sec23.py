"""§2.3's 'too many queries' table: version-reconstruction time vs chunk
size, at the paper's scale (1M unique 100-byte records, 100K-record
versions), chunks assigned randomly.

The spans/bytes are computed exactly over the metadata (no payloads
needed): Spark hashes every record id twice, and the driver ranks the
collected hashes with numpy, so no global window moves the data to one
Spark partition. The retrieval time is charged by the calibrated SEC23
cost model (DESIGN §2). Paper row: 65.42 / 14.18 / 3.10 / 1.07 /
0.56 seconds for chunk sizes 1 / 10 / 100 / 1000 / 10000 records.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..kvs.cost import SEC23_MODEL, CostModel

CHUNK_SIZES = (1, 10, 100, 1000, 10_000)
PAPER_TIMES = {1: 65.42, 10: 14.18, 100: 3.10, 1000: 1.07, 10_000: 0.56}


def run(spark: SparkSession, *, n_records: int = 1_000_000,
        version_size: int = 100_000, record_bytes: int = 100,
        chunk_sizes=CHUNK_SIZES, model: CostModel = SEC23_MODEL,
        seed: int = 0) -> pd.DataFrame:
    """Return rows (chunk_records, chunks_touched, mb_fetched, sim_s)."""
    # Uniform random permutation proxy: records in hash order ``h`` cut
    # into consecutive chunks == random assignment. The version is the
    # ``version_size`` records of smallest second hash ``vh``.
    tab = spark.range(n_records).select(
        "id", F.xxhash64(F.lit(seed), F.col("id")).alias("h"),
        F.xxhash64(F.lit(seed + 1), F.col("id")).alias("vh")).toPandas()
    ids = tab["id"].to_numpy()
    pos = np.empty(len(tab), dtype=np.int64)
    pos[np.lexsort((ids, tab["h"].to_numpy()))] = np.arange(len(tab))
    version = np.lexsort((ids, tab["vh"].to_numpy()))[:version_size]
    rows = []
    for cs in chunk_sizes:
        touched = len(np.unique(pos[version] // cs))
        nbytes = touched * cs * record_bytes
        t = model.retrieval_time(touched, nbytes)
        rows.append({"chunk_records": cs, "chunks_touched": touched,
                     "mb_fetched": nbytes / 1e6, "sim_time_s": t,
                     "paper_time_s": PAPER_TIMES.get(cs)})
    return pd.DataFrame(rows)
