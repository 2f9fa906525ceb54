"""Synthetic versioned-dataset generator (§5.1).

Follows the paper's recipe: generate a version graph with the method of
[4] (see :func:`repro.versioned.graph.random_tree`), create a base version
of JSON-like records with auto-incremented primary keys and random payloads
of the requisite size, then derive every other version from its parent by
updating/deleting a fraction of the live records (uniform or Zipf-skewed
key selection) and inserting new ones. When a record is updated, the
child's payload differs from the parent's by at most ``p_d`` (Fig 10's
knob), so zlib compression of same-key records behaves like the paper's
record-level compression.

Each version's delta is drawn from its parent's live set inside
:func:`repro.versioned.walker.walk` (its ``on_enter`` hook), so the walk
that replays every delta is the walker's, and every generated delta passes
its consistency checks. Memory is O(total delta): the emitted records and
kills, plus the walker's undo log. Every version's RNG is seeded by
``(seed, vid)`` for order-independence.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from .graph import VersionGraph
from .walker import walk

# Exponent of the Zipf weights over a version's sorted live keys when
# ``update_type="zipf"``: key rank ``r`` is touched with weight r^-ZIPF_ALPHA.
ZIPF_ALPHA = 1.1

_RECORDS_SCHEMA = T.StructType([
    T.StructField("key", T.LongType(), False),
    T.StructField("origin", T.LongType(), False),
    T.StructField("size", T.LongType(), False),
    T.StructField("payload", T.StringType(), True),
])

_KILLS_SCHEMA = T.StructType([
    T.StructField("key", T.LongType(), False),
    T.StructField("origin", T.LongType(), False),
    T.StructField("kill_vid", T.LongType(), False),
])


@dataclass
class VersionedDataset:
    """A generated multi-version dataset plus summary statistics."""

    graph: VersionGraph
    records: pd.DataFrame  # key, origin, size, payload — distinct records
    kills: pd.DataFrame    # key, origin, kill_vid
    config: dict = field(default_factory=dict)
    version_bytes: np.ndarray | None = None   # logical size of each version
    version_counts: np.ndarray | None = None  # records in each version

    @property
    def n_unique(self) -> int:
        return len(self.records)

    @property
    def unique_bytes(self) -> int:
        return int(self.records["size"].sum())

    @property
    def total_bytes(self) -> int:
        """Sum of logical version sizes (Table 2 'Total size')."""
        return int(self.version_bytes.sum())

    def spark_records(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.records, schema=_RECORDS_SCHEMA)

    def spark_kills(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.kills, schema=_KILLS_SCHEMA)


def _rand_payload(g: np.random.Generator, size: int) -> np.ndarray:
    return g.integers(97, 123, size, dtype=np.uint8)  # 'a'..'z'


def _mutate(g: np.random.Generator, payload: np.ndarray, p_d: float) -> np.ndarray:
    """Copy ``payload`` changing a contiguous ~``p_d`` fraction of it."""
    out = payload.copy()
    span = max(1, int(round(p_d * len(out))))
    off = int(g.integers(0, max(1, len(out) - span + 1)))
    out[off:off + span] = _rand_payload(g, span)
    return out


def generate(graph: VersionGraph, *, n_base: int, pct_update: float,
             update_type: str = "random", record_size=100,
             p_d: float = 0.1, frac_delete: float = 0.1,
             frac_insert: float = 0.1, with_payload: bool = True,
             seed: int = 0) -> VersionedDataset:
    """Generate a dataset over ``graph``; see module docstring.

    ``pct_update`` is the Table-2 '%update': fraction (in percent) of a
    version's live records touched when deriving a child. Of the touched
    budget, ``frac_delete`` are deletions and ``frac_insert`` fresh
    insertions; the rest are in-place updates (kill + re-add with mutated
    payload). ``record_size`` is an int (fixed) or ``(lo, hi)`` for
    per-key sizes drawn once at key creation.
    """
    if update_type not in ("random", "zipf"):
        raise ValueError(f"update_type must be random|zipf, got {update_type}")

    def _size_for(g: np.random.Generator) -> int:
        if isinstance(record_size, tuple):
            return int(g.integers(record_size[0], record_size[1] + 1))
        return int(record_size)

    # (key, origin) → (size, payload) of every record, in emission order.
    rec: dict[tuple[int, int], tuple[int, str | None]] = {}
    adds: list[list] = [[] for _ in range(graph.n)]
    kls: list[list] = [[] for _ in range(graph.n)]
    version_bytes = np.zeros(graph.n, dtype=np.int64)
    version_counts = np.zeros(graph.n, dtype=np.int64)
    next_key = 0

    def _emit(key: int, origin: int, size: int, payload) -> None:
        rec[(key, origin)] = (size, payload.tobytes().decode("ascii")
                              if payload is not None else None)
        adds[origin].append(key)

    def _derive(v: int, live: dict) -> None:
        """Draw ``v``'s delta from its parent's live set ``live``; the root
        is a version whose delta is ``n_base`` inserts."""
        nonlocal next_key
        g = np.random.default_rng((seed, v))
        p = graph.parent[v]
        dels, upds = [], []
        if p is None:
            n_ins = n_base
        else:
            n_live = len(live)
            n_change = max(1, int(round(pct_update / 100.0 * n_live)))
            n_del = int(round(frac_delete * n_change))
            n_ins = int(round(frac_insert * n_change))
            n_upd = max(0, n_change - n_del - n_ins)
            n_touch = min(n_del + n_upd, n_live)
            keys = np.fromiter(live.keys(), dtype=np.int64, count=n_live)
            keys.sort()
            if update_type == "zipf":
                w = 1.0 / np.arange(1, n_live + 1,
                                    dtype=np.float64) ** ZIPF_ALPHA
                w /= w.sum()
                chosen = g.choice(keys, size=n_touch, replace=False, p=w)
            else:
                chosen = g.choice(keys, size=n_touch, replace=False)
            k = min(n_del, n_touch)
            dels, upds = chosen[:k].tolist(), chosen[k:].tolist()

        kls[v] += [(key, live[key]) for key in dels + upds]
        for key in upds:
            size, pl = rec[(key, live[key])]
            if pl is not None:
                pl = _mutate(g, np.frombuffer(pl.encode("ascii"), np.uint8),
                             p_d)
            _emit(key, v, size, pl)
        for _ in range(n_ins):
            size = _size_for(g)
            _emit(next_key, v, size,
                  _rand_payload(g, size) if with_payload else None)
            next_key += 1

        if p is not None:
            version_bytes[v] = version_bytes[p]
            version_counts[v] = version_counts[p]
        version_bytes[v] += (sum(rec[(key, v)][0] for key in adds[v])
                             - sum(rec[r][0] for r in kls[v]))
        version_counts[v] += len(adds[v]) - len(kls[v])

    walk(graph, adds, kls, lambda v, live: None, on_enter=_derive)

    records = pd.DataFrame(
        [(k, o, size, pl) for (k, o), (size, pl) in rec.items()],
        columns=["key", "origin", "size", "payload"]).astype(
            {"key": np.int64, "origin": np.int64, "size": np.int64})
    kills = pd.DataFrame(  # in the order the walk drew them
        [(k, o, v) for v in graph.dfs_order() for k, o in kls[v]],
        columns=["key", "origin", "kill_vid"], dtype=np.int64)
    return VersionedDataset(
        graph=graph, records=records, kills=kills,
        config={"n_base": n_base, "pct_update": pct_update,
                "update_type": update_type, "record_size": record_size,
                "p_d": p_d, "seed": seed},
        version_bytes=version_bytes, version_counts=version_counts)
