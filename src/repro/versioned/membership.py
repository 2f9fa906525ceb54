"""Version ↔ record membership (the 3-D mapping `M` of §2.4, Fig 3).

A record ``(key, origin)`` belongs to every version in the subtree rooted
at ``origin``, minus the subtrees rooted at the versions that kill it
(delete it or overwrite the key). Both sides are expressed as joins
against the ancestor-closure DataFrame, so the data-proportional work runs
through Catalyst:

    live    = records ⋈ closure on (origin = anc)
    killed  = kills   ⋈ closure on (kill_vid = anc)
    member  = live ⟕̸ killed        (left anti join)

:func:`membership_pd` computes the same relation on the driver by delta
replay (:mod:`repro.versioned.walker`). It is the brute-force cross-check
of the Spark path in tests, and the membership the driver-side layouts
(sub-chunks, Figs 8–13) read; it is itself checked against the walker's
live sets and the DuckDB oracle.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from .graph import VersionGraph
from .walker import walk

_CLOSURE_SCHEMA = T.StructType([
    T.StructField("anc", T.LongType(), False),
    T.StructField("vid", T.LongType(), False),
])


def closure_df(spark: SparkSession, graph: VersionGraph) -> DataFrame:
    """Self-inclusive ancestor closure ``(anc, vid)`` as a DataFrame."""
    return spark.createDataFrame(graph.descendants_pairs(), schema=_CLOSURE_SCHEMA)


def membership_spark(spark: SparkSession, graph: VersionGraph,
                     records_df: DataFrame, kills_df: DataFrame) -> DataFrame:
    """Membership relation ``(vid, key, origin, size)`` via closure joins."""
    closure = closure_df(spark, graph)
    live = (records_df
            .join(closure, records_df["origin"] == closure["anc"])
            .select("vid", "key", "origin", "size"))
    killed = (kills_df
              .join(closure, kills_df["kill_vid"] == closure["anc"])
              .select("vid", "key", "origin"))
    return live.join(killed, ["vid", "key", "origin"], "left_anti")


def membership_pd(graph: VersionGraph, records: pd.DataFrame,
                  kills: pd.DataFrame) -> pd.DataFrame:
    """Brute-force membership by delta replay — O(n · m') rows.

    Rows come version by version in walker exit order, each version's in
    its live map's order. A version's rows are emitted as one NumPy block;
    sizes are then filled by a single lookup of the ``(key, origin)`` code
    ``key · n + origin`` in the records' sorted codes.
    """
    vids, keys, origins = [], [], []

    def _exit(v: int, live: dict) -> None:
        n = len(live)
        vids.append(np.full(n, v, dtype=np.int64))
        keys.append(np.fromiter(live.keys(), dtype=np.int64, count=n))
        origins.append(np.fromiter(live.values(), dtype=np.int64, count=n))

    walk(graph, records, kills, _exit)
    key, origin = np.concatenate(keys), np.concatenate(origins)
    rec_code = (records["key"].to_numpy(np.int64) * graph.n
                + records["origin"].to_numpy(np.int64))
    by_code = np.argsort(rec_code)
    pos = np.searchsorted(rec_code[by_code], key * graph.n + origin)
    size = records["size"].to_numpy(np.int64)[by_code[pos]]
    return pd.DataFrame({"vid": np.concatenate(vids), "key": key,
                         "origin": origin, "size": size})
