"""Tests for the SHINGLE partitioner (§3.1)."""
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.baselines import random_partition
from repro.core.shingle import L, SEED, shingle_partition, shingle_pd
from repro.core.span import total_version_span_pd
from repro.core.subchunks import (build_subchunks, compress_subchunks,
                                  sc_dataset)
from repro.versioned.generator import generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import membership_pd, membership_spark

_MEMBERSHIP_SCHEMA = T.StructType([
    T.StructField(c, T.LongType(), False)
    for c in ("vid", "key", "origin", "size")])


def reference_shingle(membership, C: int) -> pd.DataFrame:
    """SHINGLE as one Spark aggregation over the membership rows: per
    record, ``first(size)`` and the ``L`` minima of ``xxhash64(SEED, i,
    vid)``; then the same sort and byte-sum pack on the driver."""
    sh = [f"sh{i}" for i in range(L)]
    aggs = [F.min(F.xxhash64(F.lit(SEED), F.lit(i), F.col("vid"))).alias(c)
            for i, c in enumerate(sh)]
    tab = (membership.groupBy("key", "origin")
           .agg(F.first("size").alias("size"), *aggs).toPandas()
           .sort_values(sh + ["key", "origin"], ignore_index=True))
    tab["chunk"] = (tab["size"].cumsum() - tab["size"]) // C
    return tab[["key", "origin", "size", "chunk"]].astype("int64")


@pytest.fixture(scope="module")
def deep_tree():
    g = random_tree(35, deepen_prob=0.95, seed=17)
    ds = generate(g, n_base=80, pct_update=10, seed=8)
    return g, ds, membership_pd(g, ds.records, ds.kills)


def _region(k: int) -> pd.DataFrame:
    """The ``(vid, key=sc, origin, size)`` SHINGLE input of a k-record
    sub-chunk layout, as :func:`two_phase_layouts` builds it."""
    g = random_tree(30, deepen_prob=0.8, seed=5)
    ds = generate(g, n_base=40, pct_update=30, p_d=0.05, seed=5)
    mem = membership_pd(g, ds.records, ds.kills)
    sc = build_subchunks(g, ds.records, k=k)
    screc, _, screg = sc_dataset(
        g, mem, sc, compress_subchunks(ds.records, sc, g.depths()))
    return screg.merge(screc.rename(columns={"key": "sc"}),
                       on="sc").rename(columns={"sc": "key"})


def _random_tree_membership(seed: int) -> pd.DataFrame:
    g = random_tree(40, deepen_prob=0.6, seed=seed)
    ds = generate(g, n_base=50, pct_update=25, record_size=(20, 300),
                  with_payload=False, seed=seed)
    return membership_pd(g, ds.records, ds.kills)


def _chain_membership() -> pd.DataFrame:
    g = chain(25)
    ds = generate(g, n_base=60, pct_update=20, with_payload=False, seed=3)
    return membership_pd(g, ds.records, ds.kills)


class TestAgainstReference:
    """The driver function is frame-identical to the Spark aggregation."""

    def test_deep_tree_against_spark_membership(self, spark, deep_tree):
        g, ds, mem_p = deep_tree
        mem_s = membership_spark(spark, g, ds.spark_records(spark),
                                 ds.spark_kills(spark))
        pd.testing.assert_frame_equal(shingle_pd(spark, mem_p, 800),
                                      reference_shingle(mem_s, 800))

    @pytest.mark.parametrize("make_mem, C", [
        (_chain_membership, 700),
        (lambda: _random_tree_membership(1), 900),
        (lambda: _random_tree_membership(2), 2_000),
        (lambda: _region(5), 1_500),
        (lambda: _chain_membership().iloc[:0], 800),
    ], ids=["chain", "random_tree_1", "random_tree_2", "subchunk_region_k5",
            "empty"])
    def test_same_assignment(self, spark, make_mem, C):
        mem = make_mem()[["vid", "key", "origin", "size"]]
        want = reference_shingle(
            spark.createDataFrame(mem, schema=_MEMBERSHIP_SCHEMA), C)
        pd.testing.assert_frame_equal(shingle_pd(spark, mem, C), want)


class TestCorrectness:
    def test_every_record_assigned_once(self, spark, deep_tree):
        g, ds, mem_p = deep_tree
        asg = shingle_pd(spark, mem_p, C=800)
        assert len(asg) == ds.n_unique
        assert not asg.duplicated(["key", "origin"]).any()

    def test_chunk_sizes_bounded(self, spark, deep_tree):
        # Running byte-sum rule: ids dense from 0, every chunk but the
        # last filled to at least C, none past C + the largest record.
        g, ds, mem_p = deep_tree
        asg = shingle_pd(spark, mem_p, C=800)
        fills = asg.groupby("chunk")["size"].sum().sort_index()
        assert fills.index.tolist() == list(range(len(fills)))
        assert len(fills) > 1
        assert (fills.iloc[:-1] >= 800).all()
        assert fills.max() <= 800 + int(ds.records["size"].max())

    def test_empty_membership(self, spark, deep_tree):
        # The Spark adapter returns the driver function's assignment, and
        # the four-column frame for an empty membership.
        g, ds, mem_p = deep_tree
        mem_s = spark.createDataFrame(mem_p[["vid", "key", "origin", "size"]],
                                      schema=_MEMBERSHIP_SCHEMA)
        pd.testing.assert_frame_equal(
            shingle_partition(mem_s, C=800).toPandas(),
            shingle_pd(spark, mem_p, C=800))
        asg = shingle_partition(mem_s.limit(0), C=800)
        assert asg.columns == ["key", "origin", "size", "chunk"]
        assert asg.count() == 0

    def test_identical_version_sets_are_adjacent(self, spark):
        # Records born and dying together share shingles, hence chunks.
        g = chain(8)
        ds = generate(g, n_base=40, pct_update=0.01, seed=2)
        asg = shingle_pd(spark, membership_pd(g, ds.records, ds.kills),
                         C=1000)
        root = asg[asg.origin == 0]
        # Root records (all same version set) occupy a minimal chunk range.
        n_chunks = root["chunk"].nunique()
        lower = -(-int(root["size"].sum()) // 1000)
        assert n_chunks <= lower + 1

    def test_deterministic_given_seed(self, spark, deep_tree):
        g, ds, mem_p = deep_tree
        pd.testing.assert_frame_equal(shingle_pd(spark, mem_p, C=800),
                                      shingle_pd(spark, mem_p, C=800))


class TestQuality:
    def test_beats_random_on_deep_tree(self, spark, deep_tree):
        # §5.2: SHINGLE performs well when version trees are deep.
        g, ds, mem_p = deep_tree
        sh_span = total_version_span_pd(mem_p,
                                        shingle_pd(spark, mem_p, C=800))
        rnd_span = total_version_span_pd(
            mem_p, random_partition(ds.records, C=800, seed=3))
        assert sh_span < rnd_span
