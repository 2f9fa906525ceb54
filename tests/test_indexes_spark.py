"""Tests for the lossy projections and chunk maps (§2.4, Fig 3)."""
import pandas as pd
import pytest

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import IndexSet, build_indexes, chunk_map_df
from repro.core.shingle import shingle_partition
from repro.core.span import assignment_df
from repro.pipeline import lay_out
from repro.versioned.generator import VersionedDataset, generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import membership_pd, membership_spark


@pytest.fixture(scope="module")
def built(spark, tmp_path_factory):
    g = random_tree(25, deepen_prob=0.85, seed=31)
    ds = generate(g, n_base=60, pct_update=15, seed=12)
    mem_s = membership_spark(spark, g, ds.spark_records(spark),
                             ds.spark_kills(spark)).cache()
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    adf = assignment_df(spark, asg)
    idx = lay_out(spark, ds, asg, tmp_path_factory.mktemp("idx")).indexes
    return g, ds, mem_p, asg, adf, mem_s, idx


def assert_plain_ints(idx: IndexSet) -> None:
    for proj in (idx.version_to_chunks, idx.key_to_chunks):
        for k, chunks in proj.items():
            assert type(k) is int
            assert all(type(c) is int for c in chunks)
            assert chunks == sorted(set(chunks))
    assert all(type(c) is int and type(b) is int
               for c, b in idx.chunk_bytes.items())


class TestProjections:
    def test_version_projection_exact(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        joined = mem_p.merge(asg, on=["key", "origin"])
        for vid, grp in joined.groupby("vid"):
            assert idx.chunks_for_version(vid) == sorted(
                grp["chunk"].unique().tolist())

    def test_key_projection_exact(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        for key, grp in asg.groupby("key"):
            assert idx.chunks_for_key(key) == sorted(
                grp["chunk"].unique().tolist())

    def test_unknown_ids_empty(self, built):
        *_, idx = built
        assert idx.chunks_for_version(10**6) == []
        assert idx.chunks_for_key(10**6) == []

    def test_chunk_bytes(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        exp = asg.groupby("chunk")["size"].sum()
        assert idx.chunk_bytes == {int(k): int(v) for k, v in exp.items()}

    def test_sizes_reported(self, built):
        *_, idx = built
        sizes = idx.sizes_bytes()
        assert sizes["version_to_chunks"] > 0
        assert sizes["key_to_chunks"] > 0


def assert_read_back_exact(idx, asg, adf, mem_p, mem_s) -> None:
    """The indexes the store read back from M as stored equal the Spark
    aggregation and the pandas builder over membership ⋈ assignment."""
    want = IndexSet.from_pairs(mem_p.merge(asg, on=["key", "origin"]),
                               asg, asg.groupby("chunk")["size"].sum())
    assert idx == want
    assert idx == build_indexes(mem_s, adf)
    assert_plain_ints(idx)


class TestBuilder:
    def test_spark_build_equals_pandas_builder(self, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        assert_read_back_exact(idx, asg, adf, mem_p, mem_s)

    def test_shingle_read_back_equals_builders(self, spark, built, tmp_path):
        g, ds, mem_p, _, _, mem_s, _ = built
        adf = shingle_partition(mem_s, 600)
        asg = adf.toPandas()
        idx = lay_out(spark, ds, asg, tmp_path).indexes
        assert_read_back_exact(idx, asg, adf, mem_p, mem_s)

    def test_record_in_no_version(self, spark, tmp_path):
        # (1, 1) is killed at its own origin, so it belongs to no version:
        # it is stored with null vids, listed under its key and charged to
        # its chunk, but in no version's chunk list.
        g = chain(3)
        records = pd.DataFrame({"key": [0, 1, 1], "origin": [0, 0, 1],
                                "size": [10, 20, 30], "payload": [None] * 3})
        kills = pd.DataFrame({"key": [1, 1], "origin": [0, 1],
                              "kill_vid": [1, 1]})
        ds = VersionedDataset(g, records, kills)
        asg = records.assign(chunk=[0, 0, 1])
        store = lay_out(spark, ds, asg, tmp_path)
        assert store.get_chunks(spark, [1])["vids"].to_pylist() == [None]
        want = IndexSet({0: [0], 1: [0], 2: [0]}, {0: [0], 1: [0, 1]},
                        {0: 30, 1: 30})
        assert store.indexes == want
        mem = membership_spark(spark, g, ds.spark_records(spark),
                               ds.spark_kills(spark))
        assert build_indexes(mem, assignment_df(spark, asg)) == want

    def test_plain_int_types(self, built):
        assert_plain_ints(built[-1])

    def test_empty_pairs(self):
        empty = IndexSet.from_pairs(
            pd.DataFrame({"vid": [], "chunk": []}, dtype="int64"),
            pd.DataFrame({"key": [], "chunk": []}, dtype="int64"), {})
        assert empty == IndexSet({}, {}, {})


class TestChunkMaps:
    def test_chunk_map_aggregates_to_full_mapping(self, spark, built):
        # In aggregate the chunk maps contain exactly M (§2.4).
        g, ds, mem_p, asg, adf, mem_s, idx = built
        cm = chunk_map_df(mem_s, adf).toPandas()
        assert len(cm) == len(mem_p)
        got = set(zip(cm.vid, cm.key, cm.origin))
        exp = set(zip(mem_p.vid, mem_p.key, mem_p.origin))
        assert got == exp

    def test_chunk_map_chunks_match_assignment(self, spark, built):
        g, ds, mem_p, asg, adf, mem_s, idx = built
        cm = chunk_map_df(mem_s, adf).toPandas()
        chunk_of = dict(zip(zip(asg.key, asg.origin), asg.chunk))
        sample = cm.sample(n=min(200, len(cm)), random_state=0)
        for r in sample.itertuples():
            assert chunk_of[(r.key, r.origin)] == r.chunk
