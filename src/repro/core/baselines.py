"""Baseline layouts (§2.2) and their span evaluation.

- SINGLE-ADDRESS: one record per KVS key (chunk == record).
- RANDOM: records shuffled into fixed-size chunks — the §2.3 experiment's
  layout, and the 'Independent w/chunking' row of Table 1.
- SUBCHUNK: all records of a primary key in one (compressed) group; the
  generic membership span applies (span of V = #keys in V).
- DELTA: each version's delta packed into its own chunk(s). A version is
  reconstructed by fetching every delta on its root path, so the generic
  membership span does NOT apply; :func:`delta_version_spans` charges the
  full path (:func:`root_path_sum`, which also sums a path's bytes).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .chunking import pack_ordered


def single_address_partition(records: pd.DataFrame) -> pd.DataFrame:
    """One chunk per record (the composite-key address space)."""
    df = records[["key", "origin", "size"]].copy().reset_index(drop=True)
    df["chunk"] = np.arange(len(df), dtype=np.int64)
    return df


def random_partition(records: pd.DataFrame, C: int, *,
                     seed: int = 0) -> pd.DataFrame:
    """Records shuffled uniformly into ~C-byte chunks (§2.3)."""
    g = np.random.default_rng(seed)
    df = records[["key", "origin", "size"]].copy().reset_index(drop=True)
    perm = g.permutation(len(df))
    df = df.iloc[perm].reset_index(drop=True)
    ids, _ = pack_ordered(df["size"].to_numpy(), C)
    df["chunk"] = ids
    return df


def subchunk_partition(records: pd.DataFrame) -> pd.DataFrame:
    """All records of one primary key in one chunk keyed by the key."""
    df = records[["key", "origin", "size"]].copy()
    df["chunk"] = df["key"].astype(np.int64)
    return df


def delta_partition(graph, records: pd.DataFrame, C: int) -> pd.DataFrame:
    """Each version's Δ⁺ packed into per-version chunks (≥1 each).

    Chunk ids are disjoint across versions; the mapping version → its
    chunks is recoverable from the assignment (chunks never mix origins).
    """
    parts = []
    next_chunk = 0
    for origin, grp in records.groupby("origin", sort=True):
        g = grp[["key", "origin", "size"]].sort_values("key").reset_index(drop=True)
        ids, next_chunk = pack_ordered(g["size"].to_numpy(), C,
                                       start_chunk=next_chunk)
        g["chunk"] = ids
        parts.append(g)
    return pd.concat(parts, ignore_index=True)


def root_path_sum(graph, per_version: pd.Series) -> np.ndarray:
    """Each version's sum of ``per_version`` over its root path (itself
    and every ancestor); versions missing from the index count 0."""
    own = per_version.reindex(range(graph.n), fill_value=0).to_numpy(np.int64)
    out = np.zeros(graph.n, dtype=np.int64)
    for v in range(graph.n):  # parent[v] < v, so out[parent] is final
        p = graph.parent[v]
        out[v] = own[v] + (out[p] if p is not None else 0)
    return out


def delta_version_spans(graph, assignment: pd.DataFrame) -> pd.Series:
    """Span of each version under DELTA = Σ chunks over its root path.

    Versions whose delta is empty (possible for tiny test datasets)
    contribute 0 chunks of their own but still require their ancestors'.
    """
    spans = root_path_sum(graph,
                          assignment.groupby("origin")["chunk"].nunique())
    return pd.Series(spans, index=pd.RangeIndex(graph.n, name="vid"),
                     name="span")


def delta_total_span(graph, assignment: pd.DataFrame) -> int:
    return int(delta_version_spans(graph, assignment).sum())
