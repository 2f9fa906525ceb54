"""Tests for the lossy projections and chunk maps (§2.4, Fig 3)."""
import pandas as pd
import pytest

from repro.core.bottom_up import bottom_up_partition
from repro.core.indexes import IndexSet, build_indexes, chunk_map_df
from repro.core.span import assignment_df
from repro.versioned.generator import generate
from repro.versioned.graph import random_tree
from repro.versioned.membership import membership_pd, membership_spark


@pytest.fixture(scope="module")
def built(spark):
    g = random_tree(25, deepen_prob=0.85, seed=31)
    ds = generate(g, n_base=60, pct_update=15, seed=12)
    mem_s = membership_spark(spark, g, ds.spark_records(spark),
                             ds.spark_kills(spark)).cache()
    mem_p = membership_pd(g, ds.records, ds.kills)
    asg = bottom_up_partition(g, ds.records, ds.kills, C=600)
    adf = assignment_df(spark, asg)
    idx = build_indexes(mem_s, adf)
    return g, ds, mem_p, asg, adf, mem_s, idx


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


class TestBuilder:
    def test_spark_build_equals_pandas_builder(self, built):
        # The engine's Spark path and the experiments' pandas path feed
        # the same builder and must agree.
        g, ds, mem_p, asg, adf, mem_s, idx = built
        want = IndexSet.from_pairs(mem_p.merge(asg, on=["key", "origin"]),
                                   asg, asg.groupby("chunk")["size"].sum())
        assert idx == want

    def test_plain_int_types(self, built):
        *_, idx = built
        for proj in (idx.version_to_chunks, idx.key_to_chunks):
            for k, chunks in proj.items():
                assert type(k) is int
                assert all(type(c) is int for c in chunks)
                assert chunks == sorted(set(chunks))
        assert all(type(c) is int and type(b) is int
                   for c, b in idx.chunk_bytes.items())

    def test_empty_pairs(self):
        empty = IndexSet.from_pairs(
            pd.DataFrame({"vid": [], "chunk": []}, dtype="int64"),
            pd.DataFrame({"key": [], "chunk": []}, dtype="int64"), {})
        assert empty == IndexSet({}, {}, {})


class TestChunkMaps:
    def test_chunk_maps_aggregate_to_full_mapping(self, spark, built):
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
