"""SHINGLE partitioning (§3.1, Algorithms 1–2).

For every record, ``l`` min-hashes are computed over the set of versions
it belongs to (``min over versions of xxhash64(i, vid)`` for hash
function ``i``). That aggregation over the membership relation is the
data-proportional step and runs in Spark. Its result has one row per
distinct record, so it is collected and packed on the driver: records
are sorted lexicographically by their shingle vector — placing records
whose version sets overlap heavily next to each other — and cut into
fixed-size chunks by a running byte sum.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .span import assignment_df

SEED = 42  # seed of the ``l`` xxhash64 min-hash functions


def shingle_partition(membership: DataFrame, C: int, *,
                      l: int = 4) -> DataFrame:
    """Return the assignment ``(key, origin, size, chunk)``.

    ``membership`` is the ``(vid, key, origin, size)`` relation from
    :func:`repro.versioned.membership.membership_spark`. Every record
    appears in at least one version (its origin), so no record is lost.

    ``chunk = (cumsum(size) - size) // C`` puts each record in the chunk
    covering the bytes before it: chunk ids are dense, and every chunk
    but the last holds between C and C + max record bytes (within the
    §2.5 ±25% tolerance for records ≪ C).
    """
    if l < 1:
        raise ValueError("need at least one hash function")
    sh = [f"sh{i}" for i in range(l)]
    aggs = [F.min(F.xxhash64(F.lit(SEED), F.lit(i), F.col("vid"))).alias(c)
            for i, c in enumerate(sh)]
    tab = (membership.groupBy("key", "origin")
           .agg(F.first("size").alias("size"), *aggs).toPandas()
           .sort_values(sh + ["key", "origin"], ignore_index=True))
    size = tab["size"].to_numpy(dtype=np.int64)
    tab["chunk"] = (np.cumsum(size) - size) // C
    return assignment_df(membership.sparkSession, tab)
