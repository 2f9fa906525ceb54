"""Query processing (§2.4): Q1 full version, Q2 range, Q3 evolution,
and single-record retrieval, over the simulated KVS.

Planning and execution are split. The ``plan_*`` functions are the one
place that decides which chunks a query needs: they consult only the
lossy projections of an :class:`~repro.core.indexes.IndexSet` and charge
the chunks with a :class:`~repro.kvs.cost.CostModel`. Range and record
queries AND the two projections (index-ANDing), so a planned chunk may
turn out to hold no matching record — the lossy-projection artifact the
paper notes. The Fig 11/12 experiments stop at the plan;
:class:`QueryEngine` also fetches the planned chunks from the
:class:`~repro.kvs.store.ChunkStore` with one get, an Arrow read of their
files (request/byte traffic is accounted there). Each stored record
carries its chunk map entry, the sorted ``vids`` it belongs to, so
extracting exactly the requested records is an Arrow filter over the
fetched rows: a match in the flattened ``vids`` and a test on ``key``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import SparkSession

from ..kvs.cost import CostModel, QUERY_MODEL
from ..kvs.store import ChunkStore
from .indexes import IndexSet


@dataclass
class QueryStats:
    span: int          # chunks fetched
    bytes: int         # chunk bytes moved
    sim_time_s: float  # calibrated retrieval time


Plan = tuple[list[int], QueryStats]  # sorted chunk ids + their charge


def _charge(indexes: IndexSet, ids: list[int], cost: CostModel) -> Plan:
    nbytes = sum(indexes.chunk_bytes.get(c, 0) for c in ids)
    return ids, QueryStats(span=len(ids), bytes=nbytes,
                           sim_time_s=cost.retrieval_time(len(ids), nbytes))


def plan_full_version(indexes: IndexSet, vid: int,
                      cost: CostModel = QUERY_MODEL) -> Plan:
    """Q1: every chunk holding a record of ``vid``."""
    return _charge(indexes, list(indexes.chunks_for_version(vid)), cost)


def plan_range(indexes: IndexSet, vid: int, key_lo: int, key_hi: int,
               cost: CostModel = QUERY_MODEL) -> Plan:
    """Q2: the version's chunks ∩ the union of the chunks of the keys in
    ``[key_lo, key_hi]``, found by bisecting the sorted keys."""
    keys, key_to_chunks = indexes.sorted_keys, indexes.key_to_chunks
    k_chunks: set[int] = set()
    for key in keys[bisect_left(keys, key_lo):bisect_right(keys, key_hi)]:
        k_chunks.update(key_to_chunks[key])
    ids = sorted(set(indexes.chunks_for_version(vid)) & k_chunks)
    return _charge(indexes, ids, cost)


def plan_evolution(indexes: IndexSet, key: int,
                   cost: CostModel = QUERY_MODEL) -> Plan:
    """Q3: every chunk holding a record of ``key``."""
    return _charge(indexes, list(indexes.chunks_for_key(key)), cost)


def plan_record(indexes: IndexSet, key: int, vid: int,
                cost: CostModel = QUERY_MODEL) -> Plan:
    """Point query: the version's chunks ∩ the key's chunks."""
    ids = sorted(set(indexes.chunks_for_version(vid))
                 & set(indexes.chunks_for_key(key)))
    return _charge(indexes, ids, cost)


COLUMNS = ["key", "origin", "size", "payload"]  # a query's output


@dataclass(frozen=True)
class Rows:
    """A query's records: an Arrow table of :data:`COLUMNS`."""

    table: pa.Table

    def toPandas(self) -> pd.DataFrame:
        return self.table.to_pandas()


def _in_version(t: pa.Table, vid: int) -> pa.Table:
    """The rows whose ``vids`` hold ``vid`` (each holds it at most once)."""
    hit = pc.equal(pc.list_flatten(t["vids"]), vid)
    return t.take(pc.filter(pc.list_parent_indices(t["vids"]), hit))


class QueryEngine:
    """RStore's query processing module over a populated ChunkStore.

    Every method returns ``(Rows, QueryStats)`` where the stats are the
    plan's: span, bytes moved and the calibrated simulated time. ``spark``
    is handed to the store's get, which does not use it.
    """

    def __init__(self, spark: SparkSession, store: ChunkStore,
                 indexes: IndexSet, cost: CostModel = QUERY_MODEL):
        self.spark = spark
        self.store = store
        self.indexes = indexes
        self.cost = cost

    def _get(self, ids: list[int], vid: int | None = None,
             keys: tuple[int, int] | None = None) -> Rows:
        """Get ``ids``; keep the rows of ``vid`` whose ``key`` lies in the
        inclusive range ``keys`` (either test is skipped when not given)."""
        t = self.store.get_chunks(self.spark, ids)
        if keys is not None:
            k = t["key"]
            t = t.filter(pc.and_(pc.greater_equal(k, keys[0]),
                                 pc.less_equal(k, keys[1])))
        if vid is not None:
            t = _in_version(t, vid)
        return Rows(t.select(COLUMNS))

    def full_version(self, vid: int) -> tuple[Rows, QueryStats]:
        """Q1: all records belonging to version ``vid``."""
        ids, stats = plan_full_version(self.indexes, vid, self.cost)
        return self._get(ids, vid), stats

    def range_query(self, vid: int, key_lo: int,
                    key_hi: int) -> tuple[Rows, QueryStats]:
        """Q2: records of ``vid`` with ``key_lo <= key <= key_hi``."""
        ids, stats = plan_range(self.indexes, vid, key_lo, key_hi, self.cost)
        return self._get(ids, vid, (key_lo, key_hi)), stats

    def record_evolution(self, key: int) -> tuple[Rows, QueryStats]:
        """Q3: every distinct record ever stored under ``key``."""
        ids, stats = plan_evolution(self.indexes, key, self.cost)
        return self._get(ids, keys=(key, key)), stats

    def record(self, key: int, vid: int) -> tuple[Rows, QueryStats]:
        """Point query: the record of ``key`` live in version ``vid``."""
        ids, stats = plan_record(self.indexes, key, vid, self.cost)
        return self._get(ids, vid, (key, key)), stats
