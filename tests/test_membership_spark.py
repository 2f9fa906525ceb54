"""Membership: Spark closure joins, the pandas delta replay, the walker's
live sets and the DuckDB oracle, each checked against another."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.versioned.generator import generate
from repro.versioned.graph import chain, random_tree
from repro.versioned.membership import (closure_df, membership_pd,
                                        membership_spark)
from repro.versioned.walker import live_sets

from tests.paper_examples import example2


MEMBERSHIP_SQL = """
SELECT c.vid AS vid, r.key AS key, r.origin AS origin, r."size" AS size
FROM records r JOIN closure c ON r.origin = c.anc
WHERE NOT EXISTS (
    SELECT 1 FROM kills k JOIN closure c2 ON k.kill_vid = c2.anc
    WHERE c2.vid = c.vid AND k.key = r.key AND k.origin = r.origin)
"""


def _spark_inputs(spark, g, ds):
    return ds.spark_records(spark), ds.spark_kills(spark)


@pytest.fixture(scope="module")
def tree_ds():
    g = random_tree(30, deepen_prob=0.85, seed=11)
    return g, generate(g, n_base=60, pct_update=15, seed=9)


class TestSparkVsBruteForce:
    @pytest.mark.parametrize("kind,seed", [("chain", 1), ("tree", 2)])
    def test_matches_brute_force(self, spark, kind, seed):
        g = chain(15) if kind == "chain" else random_tree(
            25, deepen_prob=0.8, seed=seed)
        ds = generate(g, n_base=40, pct_update=20, seed=seed)
        rdf, kdf = _spark_inputs(spark, g, ds)
        got = (membership_spark(spark, g, rdf, kdf).toPandas()
               .sort_values(["vid", "key", "origin"]).reset_index(drop=True))
        exp = (membership_pd(g, ds.records, ds.kills)
               .sort_values(["vid", "key", "origin"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[["vid", "key", "origin", "size"]].astype("int64"), exp)

    def test_example2_membership(self, spark):
        g, rec, kills, expected = example2()
        rdf = spark.createDataFrame(rec)
        kdf = spark.createDataFrame(kills)
        mem = membership_spark(spark, g, rdf, kdf).toPandas()
        for vid, want in expected.items():
            got = set(zip(mem[mem.vid == vid].key, mem[mem.vid == vid].origin))
            assert got == want


class TestOracle:
    def test_membership_against_duckdb(self, spark, tree_ds):
        g, ds = tree_ds
        rdf, kdf = _spark_inputs(spark, g, ds)
        mem = membership_spark(spark, g, rdf, kdf)
        assert_equivalent(
            mem.select("vid", "key", "origin", "size"), MEMBERSHIP_SQL,
            records=ds.records[["key", "origin", "size"]],
            kills=ds.kills, closure=g.descendants_pairs())


class TestPandasMembership:
    """``membership_pd`` against DuckDB and the walker's live sets; no Spark."""

    @pytest.mark.parametrize("frac_delete,frac_insert,seed", [
        (0.3, 0.1, 4), (1.0, 0.0, 5), (0.6, 0.2, 6)])
    def test_against_sql_and_live_sets(self, frac_delete, frac_insert, seed):
        g = random_tree(30, deepen_prob=0.7, seed=seed)
        ds = generate(g, n_base=30, pct_update=20, frac_delete=frac_delete,
                      frac_insert=frac_insert, with_payload=False, seed=seed)
        if frac_delete == 1.0:
            delete_only = set(ds.kills["kill_vid"]) - set(ds.records["origin"])
            assert delete_only, "the input must have delete-only versions"
        mem = membership_pd(g, ds.records, ds.kills)
        assert (mem.dtypes == "int64").all()
        assert_equivalent(mem, MEMBERSHIP_SQL,
                          records=ds.records[["key", "origin", "size"]],
                          kills=ds.kills, closure=g.descendants_pairs())
        size = ds.records.set_index(["key", "origin"])["size"]
        rows = [(v, key, origin, size[(key, origin)])
                for v, live in enumerate(live_sets(g, ds.records, ds.kills))
                for key, origin in live.items()]
        want = pd.DataFrame(rows, columns=["vid", "key", "origin", "size"])
        by = ["vid", "key", "origin"]
        pd.testing.assert_frame_equal(
            mem.sort_values(by).reset_index(drop=True),
            want.sort_values(by).reset_index(drop=True), check_dtype=False)


class TestClosure:
    def test_closure_df_rows(self, spark):
        g = random_tree(20, deepen_prob=0.8, seed=3)
        got = closure_df(spark, g).count()
        assert got == len(g.descendants_pairs())
