"""Fig 10 (as tables): partitioning quality and compression ratio as the
max sub-chunk size k varies, for P_d ∈ {10%, 5%, 1%}, per algorithm.

For each (dataset, P_d, k): phase-1 sub-chunks are built and
zlib-compressed; phase-2 partitions the sub-chunks; the total version
span is evaluated at the *record* level (record → sub-chunk → chunk) so
numbers are comparable across k. The paper's two competing factors
reproduce: larger k concentrates a version's bytes in fewer fetched
records per chunk (span up) while compression shrinks the chunk count
(span down); which wins depends on P_d.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..core.bottom_up import bottom_up_partition
from ..core.subchunks import (build_subchunks, compress_subchunks, sc_dataset,
                              shingle_subchunk_partition)
from ..core.traversal import dfs_partition
from ..versioned.datasets import make
from ..versioned.membership import membership_pd

K_VALUES = (1, 2, 5, 10, 25, 50)
P_D_VALUES = (0.10, 0.05, 0.01)


def _record_span(mem_p, sc_assign, chunk_of_sc) -> int:
    rec = sc_assign.merge(chunk_of_sc, on="sc")
    return int(mem_p.merge(rec, on=["key", "origin"])
               .groupby("vid")["chunk"].nunique().sum())


def run_dataset(spark: SparkSession | None, name: str, *,
                scale: float = 1.0, C: int = 10_000,
                k_values=K_VALUES, p_d_values=P_D_VALUES,
                algorithms=("BOTTOMUP", "DEPTHFIRST", "SHINGLE")) -> pd.DataFrame:
    rows = []
    for p_d in p_d_values:
        ds = make(name, scale=scale, with_payload=True, p_d=p_d)
        g = ds.graph
        mem_p = membership_pd(g, ds.records, ds.kills)
        for k in k_values:
            sc = build_subchunks(g, ds.records, k=k)
            cs = compress_subchunks(ds.records, sc, g.depths())
            ratio = float(cs.raw_bytes.sum() / cs.comp_bytes.sum())
            screc, sckill, screg = sc_dataset(g, mem_p, sc, cs)
            for algo in algorithms:
                if algo == "BOTTOMUP":
                    asg = bottom_up_partition(g, screc, sckill, C)
                elif algo == "DEPTHFIRST":
                    asg = dfs_partition(g, screc, C)
                elif spark is None:  # SHINGLE needs Spark
                    continue
                else:
                    asg = shingle_subchunk_partition(spark, screc, screg, C)
                chunk_of = asg.rename(columns={"key": "sc"})[["sc", "chunk"]]
                rows.append({
                    "dataset": name, "p_d_pct": int(p_d * 100), "k": k,
                    "algorithm": algo, "compression_ratio": round(ratio, 2),
                    "total_span": _record_span(mem_p, sc, chunk_of),
                    "n_chunks": int(asg["chunk"].nunique())})
    return pd.DataFrame(rows)
