"""Fig 11 (as tables): query-processing performance for Q1 (full
version), Q2 (partial version) and Q3 (record evolution), per algorithm
and max sub-chunk size k, plus the SUBCHUNK and DELTA baselines.

Times are charged by the calibrated QUERY cost model (requests + bytes +
sequential per-chunk processing — the dominant terms in the paper's
measurements; DESIGN §2) over the chunks the query planner of
:mod:`repro.core.query` would fetch: exactly the chunks holding matching
records for Q1 and Q3, and the index-ANDed superset of them for Q2
(§2.4). Queries are drawn from a seeded random workload. DELTA appears
only at k=1 (no cross-version record compression); its Q3 must
reconstruct every version, which is why the paper calls it impractical.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.baselines import delta_partition, delta_version_spans
from ..core.bottom_up import bottom_up_partition
from ..core.indexes import IndexSet
from ..core.query import plan_evolution, plan_full_version, plan_range
from ..core.subchunks import (build_subchunks, compress_subchunks, sc_dataset,
                              shingle_subchunk_partition)
from ..core.traversal import dfs_partition
from ..kvs.cost import QUERY_MODEL, CostModel
from ..versioned.datasets import make
from ..versioned.membership import membership_pd

K_VALUES = (1, 5, 20, 50)
N_QUERIES = 20


def _q2_times(idx: IndexSet, vids, max_key: pd.Series, *, rng,
              model: CostModel) -> list[float]:
    """Q2 over a random range of 10% of each version's largest key."""
    out = []
    for v in vids:
        top = max_key.loc[v]
        lo = rng.integers(0, max(1, int(top)))
        hi = lo + max(1, int(0.1 * top))
        out.append(plan_range(idx, v, lo, hi, model)[1].sim_time_s)
    return out


def _query_times(mem_p, rec_assign, chunk_bytes, *, rng,
                 model: CostModel) -> dict:
    """Average simulated Q1/Q2/Q3 times over a random workload."""
    joined = mem_p.merge(rec_assign, on=["key", "origin"])
    idx = IndexSet.from_pairs(joined, rec_assign, chunk_bytes)
    vids = rng.choice(joined["vid"].unique(), N_QUERIES)
    keys = rng.choice(joined["key"].unique(), N_QUERIES)
    q1 = [plan_full_version(idx, v, model)[1].sim_time_s for v in vids]
    q2 = _q2_times(idx, vids, joined.groupby("vid")["key"].max(), rng=rng,
                   model=model)
    q3 = [plan_evolution(idx, k, model)[1].sim_time_s for k in keys]
    return {"q1_s": float(np.mean(q1)), "q2_s": float(np.mean(q2)),
            "q3_s": float(np.mean(q3))}


def run_dataset(spark: SparkSession | None, name: str, *,
                scale: float = 1.0, C: int = 10_000, k_values=K_VALUES,
                model: CostModel = QUERY_MODEL, seed: int = 0) -> pd.DataFrame:
    rows = []
    ds = make(name, scale=scale, with_payload=True, p_d=0.05)
    g = ds.graph
    mem_p = membership_pd(g, ds.records, ds.kills)
    rng = np.random.default_rng(seed)

    for k in k_values:
        sc = build_subchunks(g, ds.records, k=k)
        cs = compress_subchunks(ds.records, sc, g.depths())
        screc, sckill, screg = sc_dataset(g, mem_p, sc, cs)
        algos = {
            "BOTTOMUP": bottom_up_partition(g, screc, sckill, C),
            "DEPTHFIRST": dfs_partition(g, screc, C),
        }
        if spark is not None:
            algos["SHINGLE"] = shingle_subchunk_partition(spark, screc, screg, C)
        for algo, asg in algos.items():
            rec_assign = sc.merge(
                asg.rename(columns={"key": "sc"})[["sc", "chunk"]], on="sc")
            chunk_bytes = asg.groupby("chunk")["size"].sum()
            t = _query_times(mem_p, rec_assign, chunk_bytes, rng=rng,
                             model=model)
            rows.append({"dataset": name, "k": k, "algorithm": algo, **t})

    # DELTA (k=1 only): Q1 walks the root path; Q2 == Q1 + filter; Q3
    # reconstructs all versions (impractical).
    d_asg = delta_partition(g, ds.records, C)
    spans = delta_version_spans(g, d_asg)
    delta_bytes = d_asg.groupby("origin")["size"].sum().reindex(
        range(g.n), fill_value=0)
    path_bytes = {}
    for v in range(g.n):
        p = g.parent[v]
        path_bytes[v] = int(delta_bytes.loc[v]) + (path_bytes[p] if p is not None else 0)
    vids = rng.choice(g.n, N_QUERIES)
    q1 = [model.retrieval_time(int(spans.loc[v]), path_bytes[v]) for v in vids]
    total_chunks = int(d_asg["chunk"].nunique())
    total_bytes = int(d_asg["size"].sum())
    q3 = model.retrieval_time(total_chunks, total_bytes)
    rows.append({"dataset": name, "k": 1, "algorithm": "DELTA",
                 "q1_s": float(np.mean(q1)), "q2_s": float(np.mean(q1)),
                 "q3_s": q3})

    # SUBCHUNK baseline: one (compressed) group per key, so the chunk id
    # is the key and index-ANDing is exact.
    key_bytes = compress_subchunks(
        ds.records, ds.records[["key", "origin"]].assign(
            sc=ds.records["key"]), g.depths()).set_index("sc")["comp_bytes"]
    sub_idx = IndexSet.from_pairs(mem_p.assign(chunk=mem_p["key"]),
                                  ds.records.assign(chunk=ds.records["key"]),
                                  key_bytes)
    q1 = [plan_full_version(sub_idx, v, model)[1].sim_time_s for v in vids]
    q2 = _q2_times(sub_idx, vids, mem_p.groupby("vid")["key"].max(), rng=rng,
                   model=model)
    q3 = [plan_evolution(sub_idx, k, model)[1].sim_time_s for k in
          rng.choice(ds.records["key"].unique(), N_QUERIES)]
    rows.append({"dataset": name, "k": "all", "algorithm": "SUBCHUNK",
                 "q1_s": float(np.mean(q1)), "q2_s": float(np.mean(q2)),
                 "q3_s": float(np.mean(q3))})
    return pd.DataFrame(rows)
