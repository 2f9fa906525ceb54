"""ChunkStore: the simulated distributed KVS (DESIGN §2).

Chunks are the unit of storage (§2.4). The store is one Parquet dataset
partitioned by ``chunk`` and written so that each chunk is exactly one
file: a chunk-id lookup is a partition-pruned scan, the columnar analogue
of a KVS ``get``. The per-chunk *chunk map* (which versions each record in
the chunk belongs to) lives in the chunk's own rows, as the paper stores
it alongside the chunk: every record carries its sorted ``vids``, so one
get returns both and extracting a version's records is a filter. Chunks
are distributed over ``n_nodes`` simulated servers by ``chunk % n_nodes``;
every ``get_chunks`` records request/byte traffic so experiments can
charge the calibrated :class:`~repro.kvs.cost.CostModel`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass
class KVSStats:
    """Cumulative traffic counters for one store instance."""

    n_requests: int = 0
    n_bytes: int = 0
    per_node_requests: dict = field(default_factory=dict)

    def record(self, chunk_ids, chunk_bytes: dict, n_nodes: int) -> None:
        for cid in chunk_ids:
            self.n_requests += 1
            self.n_bytes += chunk_bytes.get(int(cid), 0)
            node = int(cid) % n_nodes
            self.per_node_requests[node] = self.per_node_requests.get(node, 0) + 1


class ChunkStore:
    """Persist one object per chunk (records + chunk map); serve gets."""

    def __init__(self, path: str | Path, n_nodes: int = 1):
        self.path = Path(path)
        self.n_nodes = n_nodes
        self.stats = KVSStats()
        self._chunk_bytes: dict[int, int] = {}

    @property
    def records_path(self) -> str:
        return str(self.path / "chunks")

    def write(self, records_with_chunk: DataFrame,
              chunk_map: DataFrame) -> None:
        """Write each chunk as one file of rows ``(key, origin, size,
        payload?, vids)``.

        ``records_with_chunk``: (key, origin, size, payload?, chunk).
        ``chunk_map``: (chunk, vid, key, origin) — the per-chunk slice of
        the 3-D mapping M (§2.4), folded into each record's sorted
        ``vids``. A record in no version keeps a null ``vids``.
        """
        vids = (chunk_map.groupBy("key", "origin")
                .agg(F.array_sort(F.collect_list("vid")).alias("vids")))
        (records_with_chunk.join(vids, ["key", "origin"], "left")
         .repartition("chunk").write.mode("overwrite")
         .partitionBy("chunk").parquet(self.records_path))
        sizes = (records_with_chunk.groupBy("chunk")
                 .agg(F.sum("size").alias("bytes")).collect())
        self._chunk_bytes = {int(r["chunk"]): int(r["bytes"]) for r in sizes}

    def chunk_bytes(self) -> dict[int, int]:
        return dict(self._chunk_bytes)

    def get_chunks(self, spark: SparkSession, chunk_ids) -> DataFrame:
        """Fetch chunks by id (partition-pruned read); account traffic."""
        ids = [int(c) for c in chunk_ids]
        self.stats.record(ids, self._chunk_bytes, self.n_nodes)
        df = spark.read.parquet(self.records_path)
        return df.where(F.col("chunk").isin(ids))

    def reset_stats(self) -> None:
        self.stats = KVSStats()
