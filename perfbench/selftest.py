"""Tiny-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the harness counts wrong outputs as failed operations: query
results with an extra row, and layouts that assign
a record twice, drop a record, overfill a chunk or disagree with the
store on chunk bytes. Exits 0 when every corruption is caught and the
uncorrupted operations pass.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import run

TINY_SCALE = 0.05
N_QUERIES = 5


class CorruptingEngine:
    """Wraps a QueryEngine and corrupts every result it returns."""

    def __init__(self, engine, corrupt):
        self._engine = engine
        self._corrupt = corrupt

    def __getattr__(self, name):
        method = getattr(self._engine, name)

        def corrupted(*args):
            out, stats = method(*args)
            return self._corrupt(out), stats
        return corrupted


def query_failures(wl, tr, n: int) -> int:
    tally = run.Tally()
    for i in range(n):
        tally.run_op(wl, tr, i, timed=False)
    return tally.failed


def layout_cases(records, asg, C, check_layout):
    import pandas as pd
    dup = asg.iloc[[0]].assign(chunk=asg["chunk"].max() + 1)
    full = asg.copy()
    full.loc[full["chunk"] == full["chunk"].iloc[0], "size"] = C
    return {
        "record assigned twice": check_layout(
            pd.concat([asg, dup], ignore_index=True), records, C),
        "record dropped": check_layout(asg.iloc[1:], records, C),
        "chunk over 1.25·C": check_layout(full, records, C),
    }


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    (run.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK / "tmp"))
    run.pin_environment(tmp)
    from checks import check_layout, check_store_indexes
    from spans import Tracer
    from workloads import C, Query

    errors = []
    ctx = SimpleNamespace(seed=3, tmp=tmp, tracer=Tracer(), spark=None)
    try:
        ctx.spark = run.start_spark()
        wl = Query(ctx)
        wl.scale = TINY_SCALE
        if wl.setup():
            errors.append("uncorrupted tiny layout failed its checks")
        if query_failures(wl, ctx.tracer, N_QUERIES):
            errors.append("uncorrupted queries were counted as failed")
        bogus = ctx.spark.createDataFrame(
            [(-1, -1, 0, "x")], "key long, origin long, size long, payload string")
        wl.engine = CorruptingEngine(wl.engine, lambda out: out.unionByName(bogus))
        failed = query_failures(wl, ctx.tracer, N_QUERIES)
        print(f"extra row: {failed}/{N_QUERIES} queries counted as failed")
        if failed != N_QUERIES:
            errors.append(f"extra row: only {failed}/{N_QUERIES} caught")
        records, asg = wl.ds.records, wl.layout.asg
        if check_layout(asg, records, C):
            errors.append("the uncorrupted layout was reported")
        for name, problems in layout_cases(records, asg, C, check_layout).items():
            print(f"{name}: {problems}")
            if not problems:
                errors.append(f"layout check missed: {name}")
        sizes = wl.layout.store.chunk_bytes()
        sizes[next(iter(sizes))] += 1
        if not check_store_indexes(sizes, wl.layout.idx.chunk_bytes):
            errors.append("store/index chunk-byte mismatch missed")
    finally:
        if ctx.spark is not None:
            run.stop_spark(ctx.spark)
        shutil.rmtree(tmp, ignore_errors=True)
    for e in errors:
        print(f"selftest: {e}", file=sys.stderr)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
