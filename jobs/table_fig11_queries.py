"""Entrypoint: Fig 11 — simulated Q1/Q2/Q3 times per algorithm and k.

Usage: spark-submit jobs/table_fig11_queries.py
"""
import pandas as pd

from repro.experiments import fig11
from repro.experiments.common import emit, get_spark


def main() -> None:
    spark = get_spark("table-fig11")
    tables = [fig11.run_dataset(spark, name) for name in ("A0s", "C0s")]
    emit("fig11_queries", pd.concat(tables, ignore_index=True),
         "Average simulated query times (calibrated cost model over the "
         "planned chunks: exact for Q1/Q3, index-ANDed for Q2) for "
         "Q1/Q2/Q3; DELTA at k=1; SUBCHUNK baseline.")


if __name__ == "__main__":
    main()
