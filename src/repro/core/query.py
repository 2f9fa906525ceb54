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
:class:`~repro.kvs.store.ChunkStore` (request/byte traffic is accounted
there) and uses the chunk maps to extract exactly the requested records.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

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
    ``[key_lo, key_hi]``."""
    k_chunks: set[int] = set()
    for key, chunks in indexes.key_to_chunks.items():
        if key_lo <= key <= key_hi:
            k_chunks.update(chunks)
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


class QueryEngine:
    """RStore's query processing module over a populated ChunkStore.

    Every method returns ``(DataFrame, QueryStats)`` where the stats are
    the plan's: span, bytes moved and the calibrated simulated time.
    """

    def __init__(self, spark: SparkSession, store: ChunkStore,
                 indexes: IndexSet, cost: CostModel = QUERY_MODEL):
        self.spark = spark
        self.store = store
        self.indexes = indexes
        self.cost = cost

    def _fetch(self, ids: list[int]) -> tuple[DataFrame, DataFrame]:
        return (self.store.get_chunks(self.spark, ids),
                self.store.get_chunk_maps(self.spark, ids))

    @staticmethod
    def _extract(recs: DataFrame, wanted: DataFrame) -> DataFrame:
        return recs.join(wanted.select("key", "origin"), ["key", "origin"]
                         ).select("key", "origin", "size", "payload")

    def full_version(self, vid: int) -> tuple[DataFrame, QueryStats]:
        """Q1: all records belonging to version ``vid``."""
        ids, stats = plan_full_version(self.indexes, vid, self.cost)
        recs, maps = self._fetch(ids)
        return self._extract(recs, maps.where(F.col("vid") == vid)), stats

    def range_query(self, vid: int, key_lo: int,
                    key_hi: int) -> tuple[DataFrame, QueryStats]:
        """Q2: records of ``vid`` with ``key_lo <= key <= key_hi``."""
        ids, stats = plan_range(self.indexes, vid, key_lo, key_hi, self.cost)
        recs, maps = self._fetch(ids)
        wanted = (maps.where(F.col("vid") == vid)
                  .where(F.col("key").between(key_lo, key_hi)))
        return self._extract(recs, wanted), stats

    def record_evolution(self, key: int) -> tuple[DataFrame, QueryStats]:
        """Q3: every distinct record ever stored under ``key``."""
        ids, stats = plan_evolution(self.indexes, key, self.cost)
        recs, _maps = self._fetch(ids)
        out = recs.where(F.col("key") == key).select(
            "key", "origin", "size", "payload")
        return out, stats

    def record(self, key: int, vid: int) -> tuple[DataFrame, QueryStats]:
        """Point query: the record of ``key`` live in version ``vid``."""
        ids, stats = plan_record(self.indexes, key, vid, self.cost)
        recs, maps = self._fetch(ids)
        wanted = maps.where((F.col("vid") == vid) & (F.col("key") == key))
        return self._extract(recs, wanted), stats
