"""Fig 13: online-partitioning quality — span ratio (online / offline
BOTTOM-UP) at version checkpoints for several batch sizes, for the
scaled B1 and C1 datasets.

Paper shape: ratios a few percent to tens of percent above 1, improving
(falling toward 1) as the batch size grows; '-' cells where a checkpoint
is not a batch boundary.
"""
from __future__ import annotations

import pandas as pd

from ..core.online import quality_ratio
from ..versioned.datasets import make
from ..versioned.membership import membership_pd


def run_dataset(name: str, *, scale: float, batch_sizes, checkpoints,
                C: int = 10_000) -> pd.DataFrame:
    ds = make(name, scale=scale)
    g = ds.graph
    mem = membership_pd(g, ds.records, ds.kills)
    rows = []
    for bs, ratios in quality_ratio(g, ds.records, ds.kills, mem, C,
                                    batch_sizes, checkpoints).items():
        row = {"dataset": name, "batch_size": bs}
        for t in checkpoints:
            row[f"@{t}"] = round(ratios[t], 3) if t in ratios else "-"
        rows.append(row)
    return pd.DataFrame(rows)


def run(*, scale: float = 1.0, C: int = 10_000) -> pd.DataFrame:
    # B1s: 250 versions → checkpoints at quarters; batches 1/8, 1/4, 1/2.
    b = run_dataset("B1s", scale=scale * 0.96,  # 240 versions
                    batch_sizes=[30, 60, 120],
                    checkpoints=[60, 120, 180, 240], C=C)
    # C1s: 500 versions → 480 after scaling.
    c = run_dataset("C1s", scale=scale * 0.96,
                    batch_sizes=[60, 120, 240],
                    checkpoints=[120, 240, 360, 480], C=C)
    # The two datasets have different checkpoint columns; blank the
    # non-applicable cells instead of NaN.
    return pd.concat([b, c], ignore_index=True).fillna("")
