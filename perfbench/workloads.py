"""The benchmark's three workloads, each a closed loop with one client.

- ``ingest``: the offline layout of B0s, repeated. One operation runs
  Spark membership, a partitioner (BOTTOM-UP and SHINGLE alternate),
  ``build_indexes`` and ``ChunkStore.write``. The query layer does no work.
- ``query``: set-up lays out B0s once with BOTTOM-UP into a ``ChunkStore``;
  one client then issues a seeded Q1/Q2/Q3/point mix through
  ``QueryEngine`` and materialises each result with ``toPandas``. The
  partitioners run only in set-up.
- ``compress``: the two-phase sub-chunk layout (§3.4, Algorithm 5) on a
  larger B0s with payloads, repeated. Only driver-side Python runs; Spark
  and the store do no work, so a Spark or store change should not move it.

A workload object has ``setup()`` (repeated to time set-up), ``run(i)``
(the timed operation ``i``) and ``check(result)`` (untimed; returns the
problems found). ``group`` operations run back to back so that ``ingest``
always times both partitioners equally often.
"""
from __future__ import annotations

import dataclasses
import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import build_indexes, chunk_map_df
from repro.core.query import QueryEngine
from repro.core.shingle import shingle_partition
from repro.core.span import assignment_df, total_version_span_pd
from repro.core.subchunks import build_subchunks, compress_subchunks, sc_dataset
from repro.kvs.store import ChunkStore
from repro.versioned.datasets import SPECS
from repro.versioned.generator import generate
from repro.versioned.membership import membership_pd, membership_spark

from checks import (QueryOracle, check_covers_once, check_layout,
                    check_store_indexes, check_version_index)
from spans import TracedIndexes, TracedStore

DATASET = "B0s"
C = 10_000
P_D = 0.05
N_NODES = 4
MIX_BLOCK = ["q1", "q1", "q2", "q3", "point"]  # 40% Q1, 20% each other kind
QUERY_KINDS = ["q1", "q2", "q3", "point"]
Q2_WIDTH = 0.1  # share of the keyspace a Q2 range covers (Fig 11)


def make_dataset(scale: float, seed: int):
    """B0s at ``scale`` with payloads, generated from ``seed``.

    ``versioned.datasets.make`` has no seed parameter, so this applies its
    scaling rule to a copy of the spec carrying the workload seed.
    """
    spec = dataclasses.replace(SPECS[DATASET], seed=seed)
    g = spec.graph(scale)
    n_base = max(10, int(spec.n_base * (1 if scale >= 1 else scale * 2)))
    return generate(g, n_base=n_base, pct_update=spec.pct_update,
                    update_type=spec.update_type, record_size=spec.record_size,
                    p_d=P_D, with_payload=True, seed=spec.seed)


def store_files(path: Path) -> tuple[int, int]:
    """Parquet files under a store and their total bytes on disk."""
    files = list(path.rglob("*.parquet"))
    return len(files), sum(f.stat().st_size for f in files)


def _spark_layout(ctx, ds, rdf, kdf, partitioner: str, store_dir: Path):
    """Membership → partitioner → indexes → store, each call one span."""
    tr, spark = ctx.tracer, ctx.spark

    def membership():
        mem = membership_spark(spark, ds.graph, rdf, kdf).cache()
        return mem, mem.count()

    mem, rows = tr.call("membership.spark", membership)
    if partitioner == "bottom_up":
        asg = tr.call("bottom_up", bottom_up_partition,
                      ds.graph, ds.records, ds.kills, C)
    else:
        asg = tr.call("shingle", lambda: shingle_partition(mem, C).toPandas())
    adf = assignment_df(spark, asg)
    idx = tr.call("indexes.build", build_indexes, mem, adf)
    store = ChunkStore(store_dir, n_nodes=N_NODES)
    tr.call("store.write", store.write,
            rdf.join(adf.select("key", "origin", "chunk"), ["key", "origin"]),
            chunk_map_df(mem, adf))
    mem.unpersist()
    return SimpleNamespace(kind=partitioner, asg=asg, idx=idx, store=store,
                           rows=rows)


def _check_spark_layout(ctx, ds, mem_p, r) -> list[str]:
    """Layout checks plus the exact counters of the ingest layers."""
    problems = (check_layout(r.asg, ds.records, C)
                + check_store_indexes(r.store.chunk_bytes(), r.idx.chunk_bytes)
                + check_version_index(r.idx, mem_p, r.asg))
    if r.rows != len(mem_p):
        problems.append(f"membership has {r.rows} rows, oracle {len(mem_p)}")
    files, disk = store_files(r.store.path)
    r.files, r.bytes_per_user_byte = files, disk / ds.unique_bytes
    tr = ctx.tracer
    if tr.enabled:
        sizes = r.idx.sizes_bytes()
        tr.count("membership.rows", r.rows)
        tr.count(f"{r.kind}.chunks", r.asg["chunk"].nunique())
        tr.count(f"{r.kind}.total_version_span",
                 total_version_span_pd(mem_p, r.asg))
        tr.count("indexes.v2c_bytes", sizes["version_to_chunks"])
        tr.count("indexes.k2c_bytes", sizes["key_to_chunks"])
        tr.count("store.files", files)
        tr.count("store.disk_bytes", disk)
        tr.count("store.chunks", len(r.store.chunk_bytes()))
    return problems


def _sizes(ds, rows, chunks, files) -> dict:
    return {"versions": ds.graph.n, "distinct_records": ds.n_unique,
            "membership_rows": rows, "chunks": chunks, "store_files": files}


class Workload:
    """Defaults for the optional hooks of a workload."""

    group = 1
    warmup = 1  # untimed operations before the first timed one
    needs_spark = True

    def __init__(self, ctx):
        self.ctx = ctx

    def start_measuring(self) -> None:
        """Called once, after warm-up and before the first timed operation."""

    def finish(self) -> None:
        """Called once, after the last timed operation."""


class Ingest(Workload):
    scale = 0.25
    group = 2
    warmup = 6  # three pairs; Spark jobs still speed up after two

    def __init__(self, ctx):
        super().__init__(ctx)
        self.results: dict[str, SimpleNamespace] = {}

    def setup(self) -> list[str]:
        ds = self.ds = make_dataset(self.scale, self.ctx.seed)
        self.rdf = ds.spark_records(self.ctx.spark)
        self.kdf = ds.spark_kills(self.ctx.spark)
        self.mem_p = membership_pd(ds.graph, ds.records, ds.kills)
        return []

    def run(self, i: int):
        kind = ("bottom_up", "shingle")[i % 2]
        return _spark_layout(self.ctx, self.ds, self.rdf, self.kdf, kind,
                             self.ctx.tmp / kind)

    def check(self, r) -> list[str]:
        self.results[r.kind] = r
        return _check_spark_layout(self.ctx, self.ds, self.mem_p, r)

    def summary(self, lat: dict) -> dict:
        bu, sh = self.results["bottom_up"], self.results["shingle"]
        stored = (bu.bytes_per_user_byte + sh.bytes_per_user_byte) / 2
        return {
            "named": {
                "ingest_bottomup_s": (statistics.median(lat["bottom_up"]), "s"),
                "ingest_shingle_s": (statistics.median(lat["shingle"]), "s"),
                "store_bytes_per_user_byte": (stored, "ratio")},
            "stored_bytes_per_user_byte": stored,
            "sizes": _sizes(self.ds, bu.rows,
                            {"bottom_up": bu.asg["chunk"].nunique(),
                             "shingle": sh.asg["chunk"].nunique()},
                            {"bottom_up": bu.files, "shingle": sh.files}),
        }


class Query(Workload):
    scale = 0.25
    # The JVM's JIT keeps speeding up queries for dozens of them; with 10
    # warm-up queries the last third of a run was 30% faster than the first.
    warmup = 40

    def __init__(self, ctx):
        super().__init__(ctx)
        self.rng = np.random.default_rng([ctx.seed, 1])
        self.kinds: list[str] = []
        self.sim_s: dict[str, list[float]] = {k: [] for k in QUERY_KINDS}

    def setup(self) -> list[str]:
        ctx = self.ctx
        ds = self.ds = make_dataset(self.scale, ctx.seed)
        rdf, kdf = ds.spark_records(ctx.spark), ds.spark_kills(ctx.spark)
        layout = self.layout = _spark_layout(ctx, ds, rdf, kdf, "bottom_up",
                                             ctx.tmp / "store")
        mem_p = membership_pd(ds.graph, ds.records, ds.kills)
        self.oracle = QueryOracle(mem_p, ds.records)
        self.chunk_of = {(int(k), int(o)): int(c) for k, o, c in zip(
            layout.asg["key"], layout.asg["origin"], layout.asg["chunk"])}
        self.engine = QueryEngine(ctx.spark, layout.store, layout.idx)
        self.traced_store = TracedStore(layout.store, ctx.tracer)
        self.traced_engine = QueryEngine(
            ctx.spark, self.traced_store, TracedIndexes(layout.idx, ctx.tracer))
        return _check_spark_layout(ctx, ds, mem_p, layout)

    def next_query(self) -> tuple[str, tuple]:
        """Next query of the seeded mix; versions and keys are uniform.

        Kinds come in blocks of five, a seeded shuffle of ``MIX_BLOCK``, so
        every run issues the same proportions whatever its length.
        """
        o, rng = self.oracle, self.rng
        if not self.kinds:
            self.kinds = list(rng.permutation(MIX_BLOCK))
        kind = str(self.kinds.pop())
        vid = int(rng.integers(o.n_versions))
        if kind == "q1":
            return kind, (vid,)
        if kind == "q2":
            width = max(1, int(Q2_WIDTH * o.max_key))
            lo = int(rng.integers(0, o.max_key - width + 2))
            return kind, (vid, lo, lo + width - 1)
        if kind == "q3":
            return kind, (int(rng.choice(o.keys)),)
        keys = o.by_vid[vid]["key"].to_numpy()  # a key live in ``vid``
        return kind, (int(keys[rng.integers(len(keys))]), vid)

    def start_measuring(self) -> None:
        self.layout.store.reset_stats()

    def run(self, i: int):
        kind, args = self.next_query()
        tr = self.ctx.tracer
        engine = self.traced_engine if tr.enabled else self.engine
        method = {"q1": engine.full_version, "q2": engine.range_query,
                  "q3": engine.record_evolution, "point": engine.record}[kind]
        stats0 = self.layout.store.stats
        before = (stats0.n_requests, stats0.n_bytes)
        with tr.span(f"query.{kind}.plan"):
            out, stats = method(*args)
        with tr.span(f"query.{kind}.collect"):
            rows = out.toPandas()
        return SimpleNamespace(kind=kind, args=args, rows=rows, stats=stats,
                               before=before)

    def check(self, r) -> list[str]:
        self.sim_s[r.kind].append(r.stats.sim_time_s)
        tr = self.ctx.tracer
        if tr.enabled:
            kvs = self.layout.store.stats
            fetched = set(self.traced_store.fetched)
            useful = {self.chunk_of.get((int(k), int(o)))
                      for k, o in zip(r.rows["key"], r.rows["origin"])}
            tr.count(f"query.{r.kind}.span", r.stats.span)
            tr.count(f"query.{r.kind}.rows", len(r.rows))
            tr.count(f"query.{r.kind}.wasted_chunk_frac",
                     len(fetched - useful) / len(fetched) if fetched else 0.0)
            tr.count(f"cost.{r.kind}.sim_s", r.stats.sim_time_s)
            tr.count("store.requests_per_query", kvs.n_requests - r.before[0])
            tr.count("store.bytes_per_query", kvs.n_bytes - r.before[1])
        return self.oracle.check(r.kind, r.args, r.rows)

    def finish(self) -> None:
        """Request balance over the simulated nodes, for the whole window."""
        per_node = self.layout.store.stats.per_node_requests
        counts = [per_node.get(n, 0) for n in range(N_NODES)]
        if sum(counts):
            self.ctx.tracer.count("store.node_requests_max_over_mean",
                                  max(counts) / (sum(counts) / N_NODES))

    def summary(self, lat: dict) -> dict:
        named = {f"{k}_p50_s": (statistics.median(lat[k]), "s")
                 for k in QUERY_KINDS if lat.get(k)}
        every = [dt for k in QUERY_KINDS for dt in lat.get(k, [])]
        if len(every) >= 2:
            named["query_p90_s"] = (statistics.quantiles(
                every, n=10, method="inclusive")[-1], "s")
        named["queries_per_s"] = (len(every) / sum(every), "1/s")
        if self.sim_s["q1"]:
            named["q1_sim_s"] = (statistics.fmean(self.sim_s["q1"]), "s")
        lay = self.layout
        return {"named": named,
                "stored_bytes_per_user_byte": lay.bytes_per_user_byte,
                "sizes": _sizes(self.ds, lay.rows, lay.asg["chunk"].nunique(),
                                lay.files)}


class Compress(Workload):
    scale = 1.0
    needs_spark = False
    K = 20

    def setup(self) -> list[str]:
        self.ds = make_dataset(self.scale, self.ctx.seed)
        return []

    def run(self, i: int):
        tr, ds = self.ctx.tracer, self.ds
        g, records = ds.graph, ds.records
        mem_p = tr.call("membership.pd", membership_pd, g, records, ds.kills)
        sc = tr.call("subchunks.build", build_subchunks, g, records, k=self.K)
        cs = tr.call("subchunks.compress", compress_subchunks,
                     records, sc, g.depths())
        screc, sckill, _ = tr.call("subchunks.sc_dataset", sc_dataset,
                                   g, mem_p, sc, cs)
        asg = tr.call("bottom_up", bottom_up_partition, g, screc, sckill, C)
        return SimpleNamespace(kind="compress", mem_p=mem_p, sc=sc, cs=cs,
                               screc=screc, asg=asg)

    def check(self, r) -> list[str]:
        raw, comp = int(r.cs["raw_bytes"].sum()), int(r.cs["comp_bytes"].sum())
        problems = check_covers_once(r.sc, self.ds.records)
        if raw != self.ds.unique_bytes:
            problems.append(f"sub-chunks hold {raw} raw bytes, records "
                            f"{self.ds.unique_bytes}")
        if not (r.cs["comp_bytes"] <= r.cs["raw_bytes"]).all():
            problems.append("a sub-chunk compresses to more than its raw bytes")
        problems += check_layout(r.asg, r.screc, C)
        self.ratio = raw / comp
        self.n_rows, self.n_chunks = len(r.mem_p), r.asg["chunk"].nunique()
        tr = self.ctx.tracer
        if tr.enabled:
            tr.count("subchunks.n", len(r.cs))
            tr.count("subchunks.raw_bytes", raw)
            tr.count("subchunks.comp_bytes", comp)
            tr.count("bottom_up.chunks", self.n_chunks)
            rec_chunk = r.sc.merge(r.asg.rename(columns={"key": "sc"})[
                ["sc", "chunk"]], on="sc")
            tr.count("bottom_up.total_version_span",
                     total_version_span_pd(r.mem_p, rec_chunk))
        return problems

    def summary(self, lat: dict) -> dict:
        return {"named": {
                    "compress_layout_s": (statistics.median(lat["compress"]), "s"),
                    "compression_ratio": (self.ratio, "ratio")},
                "stored_bytes_per_user_byte": 1 / self.ratio,
                "sizes": _sizes(self.ds, self.n_rows, self.n_chunks, 0)}


WORKLOADS = {"ingest": Ingest, "query": Query, "compress": Compress}
