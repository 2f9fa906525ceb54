"""Tests for the Spark SHINGLE partitioner (§3.1)."""
import pytest

from repro.core.baselines import random_partition
from repro.core.shingle import shingle_partition
from repro.core.span import total_version_span_pd
from repro.versioned.generator import generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import membership_pd, membership_spark


@pytest.fixture(scope="module")
def deep_tree(spark):
    g = random_tree(35, deepen_prob=0.95, seed=17)
    ds = generate(g, n_base=80, pct_update=10, seed=8)
    mem_s = membership_spark(spark, g, ds.spark_records(spark),
                             ds.spark_kills(spark)).cache()
    return g, ds, mem_s


class TestCorrectness:
    def test_every_record_assigned_once(self, spark, deep_tree):
        g, ds, mem_s = deep_tree
        asg = shingle_partition(mem_s, C=800)
        assert asg.count() == ds.n_unique
        assert asg.select("key", "origin").distinct().count() == ds.n_unique

    def test_chunk_sizes_bounded(self, spark, deep_tree):
        # Running byte-sum rule: ids dense from 0, every chunk but the
        # last filled to at least C, none past C + the largest record.
        g, ds, mem_s = deep_tree
        asg = shingle_partition(mem_s, C=800).toPandas()
        fills = asg.groupby("chunk")["size"].sum().sort_index()
        assert fills.index.tolist() == list(range(len(fills)))
        assert len(fills) > 1
        assert (fills.iloc[:-1] >= 800).all()
        assert fills.max() <= 800 + int(ds.records["size"].max())

    def test_empty_membership(self, spark, deep_tree):
        g, ds, mem_s = deep_tree
        asg = shingle_partition(mem_s.limit(0), C=800)
        assert asg.columns == ["key", "origin", "size", "chunk"]
        assert asg.count() == 0

    def test_identical_version_sets_are_adjacent(self, spark):
        # Records born and dying together share shingles, hence chunks.
        g = chain(8)
        ds = generate(g, n_base=40, pct_update=0.01, seed=2)
        mem_s = membership_spark(spark, g, ds.spark_records(spark),
                                 ds.spark_kills(spark))
        asg = shingle_partition(mem_s, C=1000).toPandas()
        root = asg[asg.origin == 0]
        # Root records (all same version set) occupy a minimal chunk range.
        n_chunks = root["chunk"].nunique()
        lower = -(-int(root["size"].sum()) // 1000)
        assert n_chunks <= lower + 1

    def test_l_validation(self, spark, deep_tree):
        g, ds, mem_s = deep_tree
        with pytest.raises(ValueError):
            shingle_partition(mem_s, C=800, l=0)

    def test_deterministic_given_seed(self, spark, deep_tree):
        g, ds, mem_s = deep_tree
        a = shingle_partition(mem_s, C=800).toPandas()
        b = shingle_partition(mem_s, C=800).toPandas()
        assert a.sort_values(["key", "origin"])["chunk"].tolist() == \
            b.sort_values(["key", "origin"])["chunk"].tolist()


class TestQuality:
    def test_beats_random_on_deep_tree(self, spark, deep_tree):
        # §5.2: SHINGLE performs well when version trees are deep.
        g, ds, mem_s = deep_tree
        mem_p = membership_pd(g, ds.records, ds.kills)
        sh_span = total_version_span_pd(
            mem_p, shingle_partition(mem_s, C=800).toPandas())
        rnd_span = total_version_span_pd(
            mem_p, random_partition(ds.records, C=800, seed=3))
        assert sh_span < rnd_span
