"""Build the evaluation tables and persist them under ``results/``
(consumed by EXPERIMENTS.md).

Usage: python jobs/run_all.py [NAME ...]

With no NAME, builds every table in ``TABLES``; otherwise only the named
ones. An unknown name exits 2 and lists the valid names. Spark starts
only if a chosen table needs it, and all such tables share one session.
"""
from __future__ import annotations

import sys
from typing import Callable, NamedTuple

import pandas as pd

from repro.experiments import (fig8, fig9, fig10, fig11, fig12, fig13,
                               sec23, table1, table2)
from repro.experiments.common import emit, get_spark, timed


class Table(NamedTuple):
    build: Callable[..., pd.DataFrame]  # build(spark) if spark, else build()
    header: str                         # line under the title in <name>.md
    spark: bool = False


TABLES = {
    "table_sec23_chunksize": Table(
        sec23.run,
        "§2.3: version-reconstruction time vs chunk size "
        "(1M records, 100K/version, random chunking).", spark=True),
    "table1_analytic": Table(
        table1.analytic,
        "Table 1 closed forms at n=100, m_v=100K, d=0.1, c=0.2, s=100B, "
        "s_c=1MB (bytes / query counts)."),
    "table1_empirical": Table(
        table1.empirical,
        "Measured on a generated chain (n=60, m_v=400, d=0.1, 200B "
        "records, 4KB chunks; zlib where the layout compresses)."),
    "table2_datasets": Table(
        table2.run,
        "Scaled (~1/100) Table-2 datasets; paper_* columns are the "
        "unscaled originals."),
    "fig8_total_span": Table(
        fig8.run,
        "Total version span (chunks fetched to rebuild every version), "
        "no compression, scaled datasets, C=10KB.", spark=True),
    "fig9_beta": Table(
        fig9.run, "Effect of subtree size β on BOTTOM-UP (dataset B0s)."),
    "fig10_compression": Table(
        fig10.run,
        "Total version span and zlib compression ratio vs max sub-chunk "
        "size k, for P_d ∈ {10,5,1}% (datasets A2s, C0s; C=10KB).",
        spark=True),
    "fig11_queries": Table(
        fig11.run,
        "Average simulated query times (calibrated cost model over the "
        "planned chunks: exact for Q1/Q3, index-ANDed for Q2) for "
        "Q1/Q2/Q3; DELTA at k=1; SUBCHUNK baseline.", spark=True),
    "fig12_scalability": Table(
        fig12.run,
        "Weak scaling: versions double with node count; BOTTOM-UP layout; "
        "parallel requests, sequential chunk processing (§5.5)."),
    "fig13_online": Table(
        fig13.run,
        "Online partitioning quality: online span / offline BOTTOM-UP "
        "span at version checkpoints ('-' = not a batch boundary)."),
}


def main(argv: list[str]) -> int:
    unknown = sorted(set(argv) - set(TABLES))
    if unknown:
        print(f"unknown table(s): {' '.join(unknown)}\n"
              f"valid names: {' '.join(TABLES)}", file=sys.stderr)
        return 2
    names = [n for n in TABLES if n in argv] if argv else list(TABLES)
    spark = (get_spark("run-all") if any(TABLES[n].spark for n in names)
             else None)
    with timed() as t:
        for name in names:
            table = TABLES[name]
            emit(name, table.build(spark) if table.spark else table.build(),
                 table.header)
            print(f"[{name} done {t():.0f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
