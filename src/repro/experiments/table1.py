"""Table 1: analytical trade-offs of the four baseline layouts, plus an
empirical cross-check measured on a generated chain dataset with our
actual layout implementations.

The analytic half evaluates the paper's closed forms; the empirical half
generates a chain (n versions, m_v records, update fraction d), builds
each layout, and measures: storage bytes (zlib-compressed where the
layout compresses), data/queries for a random full-version retrieval,
and data/queries for a random point query.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.baselines import delta_partition, delta_version_spans
from ..core.cost_model import Table1Params, table1_rows
from ..core.subchunks import compress_subchunks
from ..versioned.generator import generate
from ..versioned.graph import chain
from ..versioned.membership import membership_pd


def analytic(params: Table1Params | None = None) -> pd.DataFrame:
    params = params or Table1Params(n=100, m_v=100_000, d=0.1, c=0.2,
                                    s=100, s_c=1 << 20)
    return pd.DataFrame(table1_rows(params))


def _zlib_bytes(ds, column: str) -> pd.Series:
    """Zlib-compressed bytes of each group of records sharing ``column``
    (``origin``: a DELTA delta; ``key``: a SubChunk group), by group."""
    groups = ds.records[["key", "origin"]].assign(sc=ds.records[column])
    sizes = compress_subchunks(ds.records, groups, ds.graph.depths())
    return sizes.set_index("sc")["comp_bytes"]


def empirical(*, n: int = 60, m_v: int = 400, d: float = 0.1,
              record_bytes: int = 200, chunk_bytes: int = 4000,
              seed: int = 0) -> pd.DataFrame:
    """Measured counterpart of Table 1 on a generated chain."""
    g = chain(n)
    ds = generate(g, n_base=m_v, pct_update=100 * d, record_size=record_bytes,
                  p_d=0.05, frac_delete=0.0, frac_insert=0.0,
                  with_payload=True, seed=seed)
    mem = membership_pd(g, ds.records, ds.kills)
    rng = np.random.default_rng(seed)
    q_versions = rng.integers(0, n, 10)
    q_keys = rng.integers(0, m_v, 10)

    raw = int(ds.records["size"].sum())
    rows = []

    # Independent w/chunking — every version stored independently (records
    # duplicated across versions, matching Table 1's n·m_v·s storage),
    # each version packed into its own consecutive chunks.
    vbytes = ds.version_bytes
    rows.append({"algorithm": "Independent w/chunking",
                 "storage": int(vbytes.sum()),
                 "version_data": float(np.mean(vbytes[q_versions])),
                 "version_queries": float(np.mean(
                     np.ceil(vbytes[q_versions] / chunk_bytes))),
                 "point_data": float(chunk_bytes), "point_queries": 1})

    # DELTA — per-version deltas; queries walk the root path. Data moved is
    # the (compressed) delta chain; point queries must do the same.
    delta_bytes = _zlib_bytes(ds, "origin").reindex(range(n), fill_value=0)
    d_asg = delta_partition(g, ds.records, chunk_bytes)
    spans = delta_version_spans(g, d_asg)
    chain_bytes = np.cumsum(delta_bytes.to_numpy())
    rows.append({"algorithm": "DELTA", "storage": int(chain_bytes[-1]),
                 "version_data": float(np.mean(chain_bytes[q_versions])),
                 "version_queries": float(np.mean(spans.loc[q_versions])),
                 "point_data": float(np.mean(chain_bytes[q_versions])),
                 "point_queries": float(np.mean(spans.loc[q_versions]))})

    # SubChunk — all records of a key compressed together.
    key_bytes = _zlib_bytes(ds, "key")
    v_counts = mem.groupby("vid")["key"].nunique()
    v_data = [key_bytes.loc[mem[mem.vid == v]["key"]].sum()
              for v in q_versions]
    rows.append({"algorithm": "SubChunk", "storage": int(key_bytes.sum()),
                 "version_data": float(np.mean(v_data)),
                 "version_queries": float(v_counts.loc[q_versions].mean()),
                 "point_data": float(np.mean([key_bytes[k] for k in q_keys])),
                 "point_queries": 1})

    # Single-address space — one record per key, no compression.
    v_counts_all = mem.groupby("vid").size()
    v_bytes_all = mem.groupby("vid")["size"].sum()
    rows.append({"algorithm": "Single-address space", "storage": raw,
                 "version_data": float(v_bytes_all.loc[q_versions].mean()),
                 "version_queries": float(v_counts_all.loc[q_versions].mean()),
                 "point_data": float(record_bytes), "point_queries": 1})
    return pd.DataFrame(rows)
