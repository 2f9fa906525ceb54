"""Indexes and lossy projections (§2.4, Fig 3b).

The full 3-D mapping M(K, V, C) is kept as per-chunk *chunk maps*
(stored with the chunks in the KVS) plus two lossy in-memory projections
on the application server:

- ``version_to_chunks``: which chunks contain records of a version,
- ``key_to_chunks``: which chunks contain records of a primary key.

One builder, :meth:`IndexSet.from_pairs`, turns driver-side
``(vid, chunk)`` and ``(key, chunk)`` pairs into these hash maps — the
paper uses in-memory hashmaps too and reports their sizes (we expose
:meth:`IndexSet.sizes_bytes` for the same measurement).
:func:`build_indexes` feeds it from Spark with one aggregation over the
chunk map; the experiments feed it from pandas membership ⋈ assignment.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


def _projection(pairs: pd.DataFrame, col: str) -> dict:
    """``col`` → sorted list of distinct chunks, from ``(col, chunk)`` rows."""
    p = pairs[[col, "chunk"]].drop_duplicates().sort_values([col, "chunk"])
    if p.empty:
        return {}
    ids, chunks = p[col].to_numpy(), p["chunk"].to_numpy()
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return {int(i): c.tolist()
            for i, c in zip(ids[starts], np.split(chunks, starts[1:]))}


@dataclass
class IndexSet:
    """Driver-side lossy projections + chunk byte sizes."""

    version_to_chunks: dict   # vid -> sorted list[int]
    key_to_chunks: dict       # key -> sorted list[int]
    chunk_bytes: dict         # chunk -> bytes

    @classmethod
    def from_pairs(cls, version_chunks: pd.DataFrame,
                   key_chunks: pd.DataFrame, chunk_bytes) -> IndexSet:
        """Build from ``(vid, chunk)`` rows, ``(key, chunk)`` rows and a
        chunk → bytes mapping (dict or Series); duplicates are ignored."""
        return cls(version_to_chunks=_projection(version_chunks, "vid"),
                   key_to_chunks=_projection(key_chunks, "key"),
                   chunk_bytes={int(c): int(b) for c, b in chunk_bytes.items()})

    def chunks_for_version(self, vid: int) -> list[int]:
        return self.version_to_chunks.get(int(vid), [])

    def chunks_for_key(self, key: int) -> list[int]:
        return self.key_to_chunks.get(int(key), [])

    def sizes_bytes(self) -> dict:
        """Approximate in-memory footprint of each projection, counting 8
        bytes per stored id (adjacency-list representation, §2.4)."""
        v2c = sum(1 + len(v) for v in self.version_to_chunks.values()) * 8
        k2c = sum(1 + len(v) for v in self.key_to_chunks.values()) * 8
        return {"version_to_chunks": v2c, "key_to_chunks": k2c}


def chunk_map_df(membership: DataFrame, assignment: DataFrame) -> DataFrame:
    """Per-chunk slice of M: ``(chunk, vid, key, origin)``."""
    return (membership.join(assignment.select("key", "origin", "chunk"),
                            ["key", "origin"])
            .select("chunk", "vid", "key", "origin"))


def build_indexes(membership: DataFrame, assignment: DataFrame) -> IndexSet:
    """Both lossy projections, with one Spark aggregation (the distinct
    ``(vid, chunk)`` pairs of the chunk map); the assignment is
    metadata-scale and collected as is."""
    v_pairs = (chunk_map_df(membership, assignment)
               .select("vid", "chunk").distinct().toPandas())
    asg = assignment.select("key", "chunk", "size").toPandas()
    return IndexSet.from_pairs(v_pairs, asg,
                               asg.groupby("chunk")["size"].sum())
