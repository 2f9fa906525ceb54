"""ChunkStore: the simulated distributed KVS (DESIGN §2).

Chunks are the unit of storage (§2.4). Spark writes the store as one
Parquet dataset partitioned by ``chunk``, so that each chunk is exactly
one file: one object per key, as in a KVS. The per-chunk *chunk map*
(which versions each record in the chunk belongs to) lives in the chunk's
own rows, as the paper stores it alongside the chunk: every record carries
its sorted ``vids``, so one get returns both and extracting a version's
records is a filter. The write reads the indexes back from M as stored
(keys, flattened ``vids`` and ``size`` per chunk): the store is the one
owner of chunk sizes. A get is a KVS point operation, not a distributed
job: ``get_chunks`` reads exactly the requested chunks' files with Arrow,
one after another, from the file table the write recorded. Chunks are
distributed over ``n_nodes`` simulated servers by ``chunk % n_nodes``;
every get records request/byte traffic so experiments can charge the
calibrated :class:`~repro.kvs.cost.CostModel`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema

from ..core.indexes import IndexSet


@dataclass
class KVSStats:
    """Cumulative traffic counters for one store instance.

    ``n_bytes`` counts the user bytes of the fetched chunks (what the
    cost model charges); ``n_object_bytes`` counts the bytes of the chunk
    objects actually read, the ``vids`` column and Parquet overhead
    included.
    """

    n_requests: int = 0
    n_bytes: int = 0
    n_object_bytes: int = 0
    per_node_requests: dict = field(default_factory=dict)

    def record(self, chunk_ids, chunk_bytes: dict, n_nodes: int,
               object_bytes: dict) -> None:
        for cid in chunk_ids:
            self.n_requests += 1
            self.n_bytes += chunk_bytes.get(int(cid), 0)
            self.n_object_bytes += object_bytes.get(int(cid), 0)
            node = int(cid) % n_nodes
            self.per_node_requests[node] = self.per_node_requests.get(node, 0) + 1


def _read(path: str, columns: list[str] | None = None) -> pa.Table:
    # One chunk file is ~10 KB: decoding its columns on Arrow's thread pool
    # costs more than it saves.
    with pq.ParquetFile(path) as f:
        return f.read(columns=columns, use_threads=False)


def _read_indexes(files: dict[int, str]) -> IndexSet:
    """The lossy indexes and chunk bytes, read back from M as stored. The
    files are read one by one, as a get reads them: an Arrow dataset scan
    of the store directory raised the driver's peak memory by ~14 MB."""
    parts = [_read(f, ["key", "size", "vids"]) for f in files.values()]
    chunk = np.repeat(np.fromiter(files, np.int64, len(files)),
                      [p.num_rows for p in parts])
    t = pa.concat_tables(parts)
    keys = pd.DataFrame({"key": t["key"].to_numpy(), "chunk": chunk,
                         "size": t["size"].to_numpy()})
    return IndexSet.from_pairs(pd.DataFrame({
        "vid": pc.list_flatten(t["vids"]).to_numpy(),
        "chunk": chunk[pc.list_parent_indices(t["vids"]).to_numpy()]}),
        keys, keys.groupby("chunk")["size"].sum())


class ChunkStore:
    """Persist one object per chunk (records + chunk map); serve gets."""

    def __init__(self, path: str | Path, n_nodes: int = 1):
        self.path = Path(path)
        self.n_nodes = n_nodes
        self.stats = KVSStats()
        self.indexes = IndexSet({}, {}, {})
        self._files: dict[int, str] = {}
        self._object_bytes: dict[int, int] = {}
        self._schema: pa.Schema | None = None

    @property
    def records_path(self) -> str:
        return str(self.path / "chunks")

    def write(self, records_with_chunk: DataFrame,
              membership: DataFrame) -> None:
        """Write each chunk as one file of rows ``(key, origin, size,
        payload?, vids)``, then record, from the files written, each
        chunk's file, its size on disk, the store's Arrow schema and
        ``indexes``, the lossy projections with each chunk's user bytes.

        ``records_with_chunk``: (key, origin, size, payload?, chunk).
        ``membership``: (vid, key, origin, …) — the 3-D mapping M (§2.4),
        folded into each written record's sorted ``vids``. A record in no
        version keeps a null ``vids``.
        """
        vids = (membership.groupBy("key", "origin")
                .agg(F.array_sort(F.collect_list("vid")).alias("vids")))
        rows = records_with_chunk.join(vids, ["key", "origin"], "left")
        (rows.repartition("chunk").write.mode("overwrite")
         .partitionBy("chunk").parquet(self.records_path))
        files = sorted(Path(self.records_path).glob("chunk=*/*.parquet"))
        self._files = {int(f.parent.name.removeprefix("chunk=")): str(f)
                       for f in files}
        if len(self._files) != len(files):
            raise RuntimeError("a chunk was written as more than one file")
        self.indexes = (_read_indexes(self._files) if files
                        else IndexSet({}, {}, {}))
        self._object_bytes = {c: Path(f).stat().st_size
                              for c, f in self._files.items()}
        self._schema = (pq.read_schema(files[0]) if files
                        else to_arrow_schema(rows.drop("chunk").schema))

    def chunk_bytes(self) -> dict[int, int]:
        return dict(self.indexes.chunk_bytes)

    def get_chunks(self, spark: SparkSession, chunk_ids) -> pa.Table:
        """Fetch chunks by id: read exactly their files, one after another,
        and account the traffic. Returns one Arrow table of ``(key, origin,
        size, payload?, vids)``. ``spark`` is unused; a get runs no Spark
        job. Raises ``KeyError`` naming any id the store does not hold.
        """
        ids = [int(c) for c in chunk_ids]
        missing = [c for c in ids if c not in self._files]
        if missing:
            raise KeyError(f"chunks not in the store: {missing}")
        self.stats.record(ids, self.indexes.chunk_bytes, self.n_nodes,
                          self._object_bytes)
        if not ids:
            return self._schema.empty_table()
        return pa.concat_tables([_read(self._files[c]) for c in ids])

    def reset_stats(self) -> None:
        self.stats = KVSStats()
