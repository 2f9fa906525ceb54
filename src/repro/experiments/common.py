"""Shared helpers for ``jobs/run_all.py``: session bootstrap, markdown
rendering, and result persistence."""
from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pandas as pd
from pyspark.sql import SparkSession

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def get_spark(app: str) -> SparkSession:
    """Session for ``jobs/run_all.py`` (tests use the fixture).

    ``SPARK_DRIVER_MEM``, when set, sizes the driver JVM, as in the tests'
    ``conftest.py``; otherwise Spark's 1 GB default applies.
    """
    builder = (SparkSession.builder.appName(app)
               .config("spark.sql.shuffle.partitions",
                       os.environ.get("SPARK_SHUFFLE_PARTITIONS", "16"))
               .config("spark.sql.execution.arrow.pyspark.enabled", "true")
               .config("spark.sql.autoBroadcastJoinThreshold", -1)
               .config("spark.ui.enabled", "false"))
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        builder = builder.config("spark.driver.memory", mem)
    return builder.getOrCreate()


def to_markdown(df: pd.DataFrame, floatfmt: str = "{:.3f}") -> str:
    """Render a DataFrame as a GitHub markdown table (no tabulate dep)."""
    df = df.copy()
    for c in df.columns:
        if df[c].dtype.kind == "f":
            df[c] = df[c].map(lambda v: floatfmt.format(v))
    cols = [str(c) for c in df.columns]
    lines = ["| " + " | ".join(cols) + " |",
             "|" + "|".join(["---"] * len(cols)) + "|"]
    for _, row in df.iterrows():
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def emit(name: str, df: pd.DataFrame, header: str = "") -> None:
    """Print the table and persist it under RESULTS_DIR for EXPERIMENTS.md."""
    md = (f"### {name}\n\n{header}\n\n" if header else f"### {name}\n\n")
    md += to_markdown(df) + "\n"
    print(md, file=sys.stdout, flush=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(md)
    (RESULTS_DIR / f"{name}.csv").write_text(df.to_csv(index=False))


@contextmanager
def timed():
    """Wall-clock timer: ``with timed() as t: ...; t()`` → seconds."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0
