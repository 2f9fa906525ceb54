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

from ..core.span import total_version_span_pd
from ..core.subchunks import two_phase_layouts
from ..versioned.datasets import make
from ..versioned.membership import membership_pd

DATASETS = ("A2s", "C0s")
K_VALUES = (1, 2, 5, 10, 25, 50)
P_D_VALUES = (0.10, 0.05, 0.01)


def run_dataset(spark: SparkSession, name: str, *, scale: float = 1.0,
                C: int = 10_000, k_values=K_VALUES,
                p_d_values=P_D_VALUES) -> pd.DataFrame:
    rows = []
    for p_d in p_d_values:
        ds = make(name, scale=scale, with_payload=True, p_d=p_d)
        mem_p = membership_pd(ds.graph, ds.records, ds.kills)
        for k in k_values:
            cs, layouts = two_phase_layouts(spark, ds.graph, ds.records,
                                            mem_p, k, C)
            ratio = float(cs.raw_bytes.sum() / cs.comp_bytes.sum())
            for algo, (asg, rec_asg) in layouts.items():
                rows.append({
                    "dataset": name, "p_d_pct": int(p_d * 100), "k": k,
                    "algorithm": algo, "compression_ratio": round(ratio, 2),
                    "total_span": total_version_span_pd(mem_p, rec_asg),
                    "n_chunks": int(asg["chunk"].nunique())})
    return pd.DataFrame(rows)


def run(spark: SparkSession) -> pd.DataFrame:
    return pd.concat([run_dataset(spark, n) for n in DATASETS],
                     ignore_index=True)
