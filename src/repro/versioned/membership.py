"""Version ↔ record membership (the 3-D mapping `M` of §2.4, Fig 3).

A record ``(key, origin)`` belongs to every version in the subtree rooted
at ``origin``, minus the subtrees rooted at the versions that kill it
(delete it or overwrite the key). Both sides are expressed as joins
against the ancestor-closure DataFrame, so the data-proportional work runs
through Catalyst:

    live    = records ⋈ closure on (origin = anc)
    killed  = kills   ⋈ closure on (kill_vid = anc)
    member  = live ⟕̸ killed        (left anti join)

A driver-side delta-replay (:mod:`repro.versioned.walker`) provides the
brute-force cross-check used in tests.
"""
from __future__ import annotations

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
    """Brute-force membership by delta replay — O(n · m') rows."""
    sizes = {(int(k), int(o)): int(s)
             for k, o, s in zip(records["key"], records["origin"], records["size"])}
    vids, keys, origins, szs = [], [], [], []

    def _exit(v: int, live: dict) -> None:
        for key, origin in live.items():
            vids.append(v)
            keys.append(key)
            origins.append(origin)
            szs.append(sizes[(key, origin)])

    walk(graph, records, kills, _exit)
    return pd.DataFrame({"vid": vids, "key": keys, "origin": origins,
                         "size": szs}).astype("int64")

