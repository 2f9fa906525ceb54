"""Correctness checks the benchmark applies to every operation.

Layouts are checked against the records they were built from; query
results against a pandas oracle built in set-up from ``membership_pd`` and
the records. Every check returns a list of problems; an empty list means
the output is correct.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.chunking import OVERFLOW

QUERY_COLUMNS = ["key", "origin", "size", "payload"]
UNIT = ["key", "origin"]


def check_covers_once(assigned: pd.DataFrame, units: pd.DataFrame) -> list[str]:
    """Every ``(key, origin)`` of ``units`` appears exactly once."""
    problems = []
    if assigned.duplicated(UNIT).any():
        problems.append("a record is assigned more than once")
    n_hit = len(assigned[UNIT].drop_duplicates().merge(units[UNIT], on=UNIT))
    if n_hit != len(units) or len(assigned) != len(units):
        problems.append(f"{len(assigned)} records assigned, {len(units)} expected")
    return problems


def check_layout(assignment: pd.DataFrame, units: pd.DataFrame, C: int) -> list[str]:
    """Every unit assigned once; each chunk holds ≤ 1.25·C bytes unless it
    holds a single record."""
    problems = check_covers_once(assignment, units)
    per_chunk = assignment.groupby("chunk")["size"].agg(["sum", "count"])
    over = per_chunk[(per_chunk["sum"] > OVERFLOW * C) & (per_chunk["count"] > 1)]
    if len(over):
        problems.append(f"{len(over)} chunks exceed {OVERFLOW}·C")
    return problems


def check_store_indexes(store_bytes: dict, index_bytes: dict) -> list[str]:
    if store_bytes != index_bytes:
        return ["ChunkStore.chunk_bytes() differs from IndexSet.chunk_bytes"]
    return []


def check_version_index(indexes, membership: pd.DataFrame,
                        assignment: pd.DataFrame) -> list[str]:
    """version_to_chunks equals the projection of membership ⋈ assignment."""
    m = membership.merge(assignment[UNIT + ["chunk"]], on=UNIT)
    want = {int(v): sorted(int(c) for c in cs)
            for v, cs in m.groupby("vid")["chunk"].unique().items()}
    if want != indexes.version_to_chunks:
        return ["version_to_chunks differs from membership ⋈ assignment"]
    return []


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    out = df[QUERY_COLUMNS].astype({"key": "int64", "origin": "int64",
                                    "size": "int64"})
    return out.sort_values(UNIT).reset_index(drop=True)


class QueryOracle:
    """Expected query answers from exact membership and the records."""

    def __init__(self, membership: pd.DataFrame, records: pd.DataFrame):
        rec = records[QUERY_COLUMNS]
        self.empty = rec.iloc[:0]
        self.by_vid = {int(v): g.merge(rec, on=UNIT)
                       for v, g in membership[["vid"] + UNIT].groupby("vid")}
        self.by_key = {int(k): g for k, g in rec.groupby("key")}
        self.n_versions = max(self.by_vid) + 1
        self.max_key = int(rec["key"].max())
        self.keys = np.sort(rec["key"].unique())

    def expected(self, kind: str, args: tuple) -> pd.DataFrame:
        if kind == "q1":
            return self.by_vid.get(args[0], self.empty)
        if kind == "q2":
            vid, lo, hi = args
            v = self.by_vid.get(vid, self.empty)
            return v[v["key"].between(lo, hi)]
        if kind == "q3":
            return self.by_key.get(args[0], self.empty)
        if kind == "point":
            key, vid = args
            v = self.by_vid.get(vid, self.empty)
            return v[v["key"] == key]
        raise ValueError(f"unknown query kind {kind}")

    def check(self, kind: str, args: tuple, got: pd.DataFrame) -> list[str]:
        want = _canon(self.expected(kind, args))
        have = _canon(got)
        if not have.equals(want):
            return [f"{kind}{args}: {len(have)} rows returned, oracle has "
                    f"{len(want)}, or the rows differ"]
        return []
