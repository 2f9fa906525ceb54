"""Fig 12 (a table in the paper): weak-scaling of RStore.

The cluster doubles from 1 to 16 nodes and the data roughly doubles with
it (more versions). Per configuration we: generate the dataset, run
BOTTOM-UP, measure the average full-version span and average key span,
and charge the QUERY cost model — requests are issued in parallel
(latency / nodes) but chunk processing is sequential (§5.5), so Q1/Q3
times *rise* with scale, tracking span growth, exactly the paper's shape.

Datasets G (10k versions × 50K records) and H (2k × 100K) are scaled
~1/40 while preserving their versions-to-records ratio.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd

from ..core.bottom_up import bottom_up_partition
from ..core.indexes import IndexSet
from ..core.query import plan_evolution, plan_full_version
from ..kvs.cost import QUERY_MODEL
from ..versioned.generator import generate
from ..versioned.graph import random_tree
from ..versioned.membership import membership_pd

NODES = (1, 2, 4, 8, 16)

# Paper's Fig 12 values for reference.
PAPER = {
    "G": {"q1": [7.35, 7.95, 8.99, 10.49, None, 11.39],
          "span": [507.99, 559.49, 622.88, 702.92, 710.24, 702.21]},
    "H": {"q1": [61.83, 63.24, 64.38, 73.71, 74.30, 78.86],
          "span": [400.24, 436.48, 451.20, 554.92, 561.60, 594.92]},
}


def run_dataset(name: str, *, base_versions: int, n_base: int,
                pct_update: float, nodes=NODES, C: int = 10_000,
                seed: int = 0) -> pd.DataFrame:
    rows = []
    rng = np.random.default_rng(seed)
    for n_nodes in nodes:
        n_versions = base_versions * n_nodes
        g = random_tree(n_versions, deepen_prob=0.9, seed=seed)
        ds = generate(g, n_base=n_base, pct_update=pct_update, seed=seed)
        mem = membership_pd(g, ds.records, ds.kills)
        asg = bottom_up_partition(g, ds.records, ds.kills, C)
        idx = IndexSet.from_pairs(mem.merge(asg, on=["key", "origin"]), asg,
                                  asg.groupby("chunk")["size"].sum())
        model = replace(QUERY_MODEL, concurrency=n_nodes)
        # Q1 over sampled versions, Q3 over sampled keys.
        vids = rng.choice(sorted(idx.version_to_chunks), 15)
        q1 = [plan_full_version(idx, v, model)[1].sim_time_s for v in vids]
        keys = rng.choice(asg["key"].unique(), 15)
        q3 = [plan_evolution(idx, k, model)[1].sim_time_s for k in keys]
        rows.append({
            "dataset": name, "nodes": n_nodes, "versions": n_versions,
            "avg_version_span": round(float(np.mean(
                [len(c) for c in idx.version_to_chunks.values()])), 2),
            "q1_s": round(float(np.mean(q1)), 3),
            "avg_key_span": round(float(np.mean(
                [len(c) for c in idx.key_to_chunks.values()])), 2),
            "q3_s": round(float(np.mean(q3)), 4),
        })
    return pd.DataFrame(rows)


def run(*, nodes=NODES, scale: float = 1.0) -> pd.DataFrame:
    g_tbl = run_dataset("G~", base_versions=max(10, int(60 * scale)),
                        n_base=max(50, int(500 * scale)), pct_update=10,
                        nodes=nodes)
    h_tbl = run_dataset("H~", base_versions=max(5, int(12 * scale)),
                        n_base=max(100, int(1000 * scale)), pct_update=10,
                        nodes=nodes)
    return pd.concat([g_tbl, h_tbl], ignore_index=True)
