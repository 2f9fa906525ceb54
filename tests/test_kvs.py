"""Tests for the simulated KVS substrate (ChunkStore + accounting)."""
from pathlib import Path

import pyarrow.parquet as pq
import pytest
from pyspark.sql import functions as F

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import IndexSet
from repro.kvs.store import ChunkStore, KVSStats
from repro.pipeline import lay_out
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd


@pytest.fixture(scope="module")
def store(spark, tmp_path_factory):
    g = random_tree(20, deepen_prob=0.85, seed=21)
    ds = generate(g, n_base=50, pct_update=15, with_payload=True, seed=10)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=500)
    # With coalescing off, every shuffle partition holds rows, as in a large
    # store, so the one-file-per-chunk test sees a multi-task write.
    coalesce = "spark.sql.adaptive.coalescePartitions.enabled"
    prev = spark.conf.get(coalesce)
    spark.conf.set(coalesce, "false")
    try:
        st = lay_out(spark, ds, asg, tmp_path_factory.mktemp("kvs"),
                     n_nodes=4)
    finally:
        spark.conf.set(coalesce, prev)
    return g, ds, asg, st


class TestWriteRead:
    def test_roundtrip_all_chunks(self, spark, store):
        g, ds, asg, st = store
        all_ids = sorted(asg["chunk"].unique().tolist())
        got = st.get_chunks(spark, all_ids)
        assert got.num_rows == ds.n_unique

    def test_partition_pruning_returns_subset(self, spark, store):
        g, ds, asg, st = store
        one = int(asg["chunk"].iloc[0])
        got = st.get_chunks(spark, [one]).to_pandas()
        exp = asg[asg["chunk"] == one]
        assert set(zip(got.key, got.origin)) == set(zip(exp.key, exp.origin))

    def test_vids_are_record_versions(self, spark, store):
        # Each stored record carries its chunk map entry: the sorted
        # versions it belongs to (§2.4).
        g, ds, asg, st = store
        mem = membership_pd(g, ds.records, ds.kills)
        want = {kv: sorted(grp.tolist())
                for kv, grp in mem.groupby(["key", "origin"])["vid"]}
        got = st.get_chunks(spark, sorted(asg["chunk"].unique().tolist())
                            ).select(["key", "origin", "vids"]).to_pandas()
        assert len(got) == ds.n_unique
        for r in got.itertuples():
            vids = [] if r.vids is None else [int(v) for v in r.vids]
            assert vids == want.get((r.key, r.origin), [])

    def test_one_file_per_chunk(self, store):
        # One get is one object: the store's Parquet files sit one per
        # chunk=<id> directory, and those are exactly the assigned chunks.
        g, ds, asg, st = store
        files = list(st.path.rglob("*.parquet"))
        assert (sorted(int(f.parent.name.split("=")[1]) for f in files)
                == sorted(asg["chunk"].unique()))

    def test_get_opens_only_requested_files(self, spark, store, monkeypatch):
        # Pruning, proven: a get opens exactly the requested chunks' files.
        g, ds, asg, st = store
        opened = []
        real = pq.ParquetFile

        def spy(path, *args, **kwargs):
            opened.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(pq, "ParquetFile", spy)
        ids = sorted(asg["chunk"].unique().tolist())[1::3]
        got = st.get_chunks(spark, ids)
        chunks = sorted(int(Path(p).parent.name.split("=")[1]) for p in opened)
        assert chunks == ids
        assert got.num_rows == int(asg["chunk"].isin(ids).sum())

    def test_get_of_unknown_chunk_names_it(self, spark, store):
        g, ds, asg, st = store
        absent = int(asg["chunk"].max()) + 7
        with pytest.raises(KeyError, match=str(absent)):
            st.get_chunks(spark, [int(asg["chunk"].iloc[0]), absent])

    def test_empty_get_has_store_schema(self, spark, store):
        g, ds, asg, st = store
        got = st.get_chunks(spark, [])
        one = st.get_chunks(spark, [int(asg["chunk"].iloc[0])])
        assert got.num_rows == 0 and got.schema == one.schema

    def test_empty_store_serves_empty_gets(self, spark, store, tmp_path):
        g, ds, asg, st = store
        rdf = ds.spark_records(spark).limit(0)
        empty = ChunkStore(tmp_path / "empty")
        no_map = spark.createDataFrame([], "vid long, key long, origin long")
        empty.write(rdf.withColumn("chunk", F.lit(0).cast("long")), no_map)
        assert empty.indexes == IndexSet({}, {}, {})
        assert empty.chunk_bytes() == {}
        got = empty.get_chunks(spark, [])
        assert got.num_rows == 0
        assert got.column_names == ["key", "origin", "size", "payload", "vids"]
        with pytest.raises(KeyError, match="0"):
            empty.get_chunks(spark, [0])

    def test_chunk_bytes_match_assignment(self, store):
        # The indexes own the sizes; chunk_bytes() hands out a copy.
        g, ds, asg, st = store
        exp = asg.groupby("chunk")["size"].sum().to_dict()
        assert st.chunk_bytes() == {int(k): int(v) for k, v in exp.items()}
        assert st.chunk_bytes() == st.indexes.chunk_bytes
        assert st.chunk_bytes() is not st.indexes.chunk_bytes


class TestAccounting:
    def test_request_and_byte_counters(self, spark, store):
        g, ds, asg, st = store
        st.reset_stats()
        ids = sorted(asg["chunk"].unique().tolist())[:3]
        st.get_chunks(spark, ids)
        assert st.stats.n_requests == 3
        exp_bytes = int(asg[asg["chunk"].isin(ids)]["size"].sum())
        assert st.stats.n_bytes == exp_bytes

    def test_object_bytes_are_file_sizes(self, spark, store):
        # n_bytes stays user bytes (the cost model's charge); n_object_bytes
        # is what the get read from disk: the chunk files, vids included.
        g, ds, asg, st = store
        st.reset_stats()
        ids = sorted(asg["chunk"].unique().tolist())[:3]
        st.get_chunks(spark, ids)
        on_disk = sum(f.stat().st_size for c in ids for f in
                      Path(st.records_path, f"chunk={c}").glob("*.parquet"))
        assert st.stats.n_object_bytes == on_disk
        assert st.stats.n_object_bytes >= st.stats.n_bytes > 0

    def test_per_node_distribution(self, spark, store):
        g, ds, asg, st = store
        st.reset_stats()
        ids = sorted(asg["chunk"].unique().tolist())
        st.get_chunks(spark, ids)
        assert sum(st.stats.per_node_requests.values()) == len(ids)
        assert set(st.stats.per_node_requests) <= set(range(4))

    def test_stats_object_standalone(self):
        s = KVSStats()
        s.record([0, 1, 5], {0: 10, 1: 20, 5: 30}, n_nodes=2,
                 object_bytes={})
        assert s.n_requests == 3 and s.n_bytes == 60
        assert s.n_object_bytes == 0
        assert s.per_node_requests == {0: 1, 1: 2}
        s.record([1], {1: 20}, n_nodes=2, object_bytes={1: 70})
        assert s.n_bytes == 80 and s.n_object_bytes == 70
