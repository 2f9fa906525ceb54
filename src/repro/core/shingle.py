"""SHINGLE partitioning (§3.1, Algorithms 1–2).

For every record, ``L`` min-hashes are computed over the set of versions
it belongs to (``min over versions of xxhash64(SEED, i, vid)`` for hash
function ``i``). Spark hashes each version once; the per-record minima
are a pandas group-minimum over the membership rows. Records are sorted
by their shingle vector — placing records whose version sets overlap
next to each other — and cut into chunks by a running byte sum.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .span import assignment_df

SEED = 42  # seed of the ``L`` xxhash64 min-hash functions
L = 4  # min-hash functions per record


def shingle_pd(spark: SparkSession, membership: pd.DataFrame,
               C: int) -> pd.DataFrame:
    """Return the assignment ``(key, origin, size, chunk)``.

    ``membership`` is a ``(vid, key, origin, size)`` relation, e.g. from
    :func:`repro.versioned.membership.membership_pd`. Every record
    appears in at least one version (its origin), so no record is lost.

    ``chunk = (cumsum(size) - size) // C`` puts each record in the chunk
    covering the bytes before it: chunk ids are dense, and every chunk
    but the last holds between C and C + max record bytes (within the
    §2.5 ±25% tolerance for records ≪ C).
    """
    vid = membership["vid"].to_numpy(np.int64)
    sh = [f"sh{i}" for i in range(L)]
    hashes = spark.range(int(vid.max()) + 1 if len(vid) else 0).select(
        *[F.xxhash64(F.lit(SEED), F.lit(i), F.col("id")).alias(c)
          for i, c in enumerate(sh)]).toPandas().to_numpy(np.int64)
    tab = (membership[["key", "origin", "size"]]
           .assign(**dict(zip(sh, hashes[vid].T)))
           .groupby(["key", "origin"], as_index=False, sort=False)
           .agg({"size": "first", **dict.fromkeys(sh, "min")})
           .sort_values(sh + ["key", "origin"], ignore_index=True))
    size = tab["size"].to_numpy(np.int64)
    tab["chunk"] = (np.cumsum(size) - size) // C
    return tab[["key", "origin", "size", "chunk"]]


def shingle_partition(membership: DataFrame, C: int) -> DataFrame:
    """:func:`shingle_pd` over a Spark membership, returned in Spark (the
    entry point of perfbench's ``ingest`` layout)."""
    spark = membership.sparkSession
    return assignment_df(spark, shingle_pd(spark, membership.toPandas(), C))
